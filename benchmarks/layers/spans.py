"""The outside-in layer tracer.

Nothing under ``src/`` knows about this module.  :func:`tracing`
replaces the public entry points of each layer with timing wrappers for
the length of one traced pass and puts the originals back afterwards
(identity-checked), so the timed pass provably runs unwrapped code.

A span is a row of six columns: name, start, end, parent, op, thread
(columns, not objects, so a hundred thousand spans add nothing for the
garbage collector to walk).  The harness names the operation in flight
(:meth:`Tracer.begin_op`); spans opened while no operation is in flight
are not recorded.  A span's parent is the span open beneath it on its
own thread; on a thread with nothing open it is the span the dispatching
thread handed over (executor workers), else the innermost
``net.transport.request`` of the operation still open on any thread
(socket handler threads: the request that waits for them).

:func:`attribute` turns the spans of each operation into per-layer self
time.  A span's *exclusive* time is its interval, clipped to its
parent's, minus the union of its children's intervals.  Exclusive
intervals of spans on concurrent branches overlap in wall time; an
instant covered by *k* running ones credits each with 1/k (blocked
socket reads count only while nothing runs), so the per-layer self
times of an operation sum to its root span's duration exactly.
"""

import threading
from collections import Counter
from contextlib import contextmanager
from threading import get_ident
from time import perf_counter

from repro.core import gather as gather_module
from repro.core.answer import AnswerBuilder
from repro.core.database import SensorDatabase
from repro.core.executors import ThreadedExecutor
from repro.core.gather import GatherDriver
from repro.net import messages as messages_module
from repro.net import tcpruntime as tcp_module
from repro.net.cluster import Cluster
from repro.net.dns import DnsResolver
from repro.net.framing import FrameReader
from repro.net.messages import Message
from repro.net.oa import OrganizingAgent
from repro.net.tcpruntime import TcpNetwork
from repro.net.transport import LoopbackNetwork
from repro.xmlkit.nodes import Element
from repro.xpath import parser as xpath_parser
from repro.xpath.evaluator import Evaluator

#: Spans that only time their outermost call on a thread (the callable
#: recurses, or several callables share one layer) but count every call.
OUTERMOST = "outermost"
#: Spans recorded when the call returns, clipped to the operation then
#: in flight: a socket handler blocks in its read between requests, so
#: the call starts long before the operation it ends up serving.
AT_RETURN = "at-return"

#: ``(span, owner, attribute, mode)``: the class-level and module-level
#: entry points.  The per-agent dispatch callables are added per cluster.
ENTRY_POINTS = (
    ("net.cluster.query", Cluster, "query", None),
    ("net.cluster.query", Cluster, "query_via_messages", None),
    ("net.cluster.route", Cluster, "route_query", None),
    ("net.dns.resolve", DnsResolver, "resolve", None),
    ("net.oa.user_query", OrganizingAgent, "answer_user_query", None),
    ("net.oa.handle_message", OrganizingAgent, "handle_message", None),
    ("core.gather.gather", GatherDriver, "gather", None),
    ("core.gather.extract", GatherDriver, "answer_user_query", None),
    ("core.qeg.compile", gather_module, "compile_pattern", None),
    ("core.qeg.walk", gather_module, "run_qeg", None),
    ("core.answer.build", AnswerBuilder, "include_id_information", OUTERMOST),
    ("core.answer.build", AnswerBuilder, "include_ancestors", OUTERMOST),
    ("core.answer.build", AnswerBuilder, "include_local_information",
     OUTERMOST),
    ("core.answer.build", AnswerBuilder, "include_subtree", OUTERMOST),
    ("core.answer.build", AnswerBuilder, "build", OUTERMOST),
    ("core.semcache.canonicalize", gather_module, "canonicalize", None),
    ("xpath.parse", xpath_parser, "parse", None),
    ("xpath.evaluate", Evaluator, "evaluate", OUTERMOST),
    ("core.database.merge", SensorDatabase, "store_fragment", None),
    ("core.database.update", SensorDatabase, "apply_update", None),
    ("xmlkit.copy", Element, "copy", OUTERMOST),
    ("xmlkit.serialize", messages_module, "serialize", None),
    ("xmlkit.parse", messages_module, "parse_fragment", None),
    ("net.messages.encode", Message, "encode", None),
    ("net.messages.decode", Message, "decode", None),
    ("net.framing.io", tcp_module, "send_framed", None),
    ("net.framing.io", tcp_module, "recv_framed", None),
    ("net.framing.io", FrameReader, "recv_frame", AT_RETURN),
    ("net.transport.request", LoopbackNetwork, "request", None),
    ("net.transport.request", TcpNetwork, "request", None),
)

DISPATCH_SPAN = "net.oa.dispatch"
#: The span a socket handler thread's work hangs under: the request that
#: is waiting for it.  (Not simply the innermost open span: that may be a
#: short one on a concurrent branch, and would clip the whole subtree.)
ADOPTING_SPAN = "net.transport.request"
#: Spans that block rather than compute.  While anything else in the
#: operation is running, the time is not theirs.
WAITING_SPANS = frozenset({"net.framing.io"})

SPAN_NAMES = tuple(dict.fromkeys(
    [entry[0] for entry in ENTRY_POINTS] + [DISPATCH_SPAN]))


class _ThreadState:
    __slots__ = ("stack", "inherited", "calls")

    def __init__(self):
        self.stack = []
        self.inherited = None
        self.calls = Counter()


class Tracer:
    """Span store plus the per-thread bookkeeping the wrappers share."""

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.ops = []
        self.threads = []
        self.op = None
        self._op_start = None
        self._open = []
        self._states = {}
        self._inside = {}
        self._lock = threading.Lock()

    def __len__(self):
        return len(self.names)

    # -- harness side ---------------------------------------------------
    def begin_op(self, op):
        self._op_start = perf_counter()
        self.op = op

    def end_op(self):
        self.op = None

    def calls(self):
        """Calls per span name, nested ones included, over all threads."""
        total = Counter()
        for state in list(self._states.values()):
            total.update(state.calls)
        return total

    # -- wrapper side ---------------------------------------------------
    def _state(self):
        ident = threading.get_ident()
        state = self._states.get(ident)
        if state is None:
            state = self._states[ident] = _ThreadState()
        return state

    def _current(self, state):
        """The span a new span on this thread hangs under (may be None)."""
        if state.stack:
            return state.stack[-1]
        if state.inherited is not None:
            return state.inherited
        innermost = None
        for index in reversed(self._open):
            if self.ops[index] == self.op:
                if self.names[index] == ADOPTING_SPAN:
                    return index
                if innermost is None:
                    innermost = index
        return innermost

    def _append(self, name, start, end, state):
        # Caller holds the lock.
        self.names.append(name)
        self.starts.append(start)
        self.ends.append(end)
        self.parents.append(self._current(state))
        self.ops.append(self.op)
        self.threads.append(threading.get_ident())

    def _open_span(self, name, state):
        with self._lock:
            index = len(self.names)
            self._append(name, perf_counter(), None, state)
            self._open.append(index)
        state.stack.append(index)

    def _close_span(self, state):
        index = state.stack.pop()
        with self._lock:
            self.ends[index] = perf_counter()
            self._open.remove(index)

    def _record_returned(self, name, started):
        if self.op is None:
            return
        state = self._state()
        state.calls[name] += 1
        with self._lock:
            self._append(name, max(started, self._op_start), perf_counter(),
                         state)

    def wrap(self, name, func, mode=None):
        """The timing wrapper around *func* for span *name*."""
        tracer = self

        if mode == AT_RETURN:
            def wrapper(*args, **kwargs):
                started = perf_counter()
                try:
                    return func(*args, **kwargs)
                finally:
                    tracer._record_returned(name, started)
        elif mode == OUTERMOST:
            # thread ident -> [calls] while a call of this span is open
            # there; shared by every callable of the span.  The nested
            # path is the hot one (thousands of calls per operation).
            inside = tracer._inside.setdefault(name, {})

            def wrapper(*args, **kwargs):
                nested = inside.get(get_ident())
                if nested is not None:
                    nested[0] += 1
                    return func(*args, **kwargs)
                if tracer.op is None:
                    return func(*args, **kwargs)
                state = tracer._state()
                inside[get_ident()] = nested = [1]
                tracer._open_span(name, state)
                try:
                    return func(*args, **kwargs)
                finally:
                    tracer._close_span(state)
                    del inside[get_ident()]
                    state.calls[name] += nested[0]
        else:
            def wrapper(*args, **kwargs):
                if tracer.op is None:
                    return func(*args, **kwargs)
                state = tracer._state()
                state.calls[name] += 1
                tracer._open_span(name, state)
                try:
                    return func(*args, **kwargs)
                finally:
                    tracer._close_span(state)
        wrapper.__wrapped__ = func
        return wrapper

    def carry(self, executor_map):
        """``ThreadedExecutor.map`` handing the caller's span to workers."""
        tracer = self

        def map_with_parent(executor, fn, items):
            parent = tracer._current(tracer._state())

            def carried(item):
                state = tracer._state()
                previous, state.inherited = state.inherited, parent
                try:
                    return fn(item)
                finally:
                    state.inherited = previous
            return executor_map(executor, carried, items)
        return map_with_parent


def _patch(owner, attribute, make):
    """Replace ``owner.attribute`` via *make*; returns the undo record."""
    original = vars(owner)[attribute]
    if isinstance(original, (staticmethod, classmethod)):
        replacement = type(original)(make(original.__func__))
    else:
        replacement = make(original)
    setattr(owner, attribute, replacement)
    return owner, attribute, original


@contextmanager
def tracing(cluster):
    """Install the layer wrappers around *cluster*'s code for one pass."""
    tracer = Tracer()
    undo = []
    try:
        for name, owner, attribute, mode in ENTRY_POINTS:
            undo.append(_patch(
                owner, attribute,
                lambda func, n=name, m=mode: tracer.wrap(n, func, m)))
        undo.append(_patch(ThreadedExecutor, "map", tracer.carry))
        for agent in cluster.agents.values():
            for attribute in ("send", "send_many"):
                undo.append(_patch(
                    agent.driver, attribute,
                    lambda func: tracer.wrap(DISPATCH_SPAN, func)))
        yield tracer
    finally:
        for owner, attribute, original in reversed(undo):
            setattr(owner, attribute, original)
            if vars(owner)[attribute] is not original:
                raise RuntimeError(
                    f"{owner!r}.{attribute} was not restored")


# ----------------------------------------------------------------------
# Attribution
# ----------------------------------------------------------------------
def _exclusive_pieces(tracer, root, members):
    """``(start, end, span)`` exclusive intervals of one operation."""
    starts, ends, parents, ops = \
        tracer.starts, tracer.ends, tracer.parents, tracer.ops
    children = {}
    for index in members:
        if index != root:
            parent = parents[index]
            if parent is None or ops[parent] != ops[index]:
                parent = root
            children.setdefault(parent, []).append(index)
    pieces = []
    stack = [(root, starts[root], ends[root])]
    while stack:
        index, low, high = stack.pop()
        cursor = low
        for child in sorted(children.get(index, ()), key=starts.__getitem__):
            # A child that outlived its parent, or was still open when
            # the pass ended, is clipped to the parent's interval.
            start = min(max(starts[child], low), high)
            end = ends[child]
            end = high if end is None else min(max(end, start), high)
            stack.append((child, start, end))
            if start > cursor:
                pieces.append((cursor, start, index))
            cursor = max(cursor, end)
        if high > cursor:
            pieces.append((cursor, high, index))
    return pieces


def attribute(tracer, slowdowns):
    """Per-layer self time and calls per operation, plus trace totals.

    *slowdowns* holds the host slowdown around each traced operation,
    by operation number; every interval of an operation is divided by
    it.  Returns ``(layers, totals)``: *layers* maps span name to
    ``{"self_ms_per_op", "calls_per_op"}``; *totals* holds the summed
    root duration, the summed weighted self time and the summed
    unweighted exclusive time, in normalised seconds.
    """
    names, threads = tracer.names, tracer.threads
    by_op = {}
    for index, op in enumerate(tracer.ops):
        by_op.setdefault(op, []).append(index)
    self_time = Counter()
    root_time = 0.0
    exclusive_time = 0.0
    for op, members in by_op.items():
        # A query's root is net.cluster.query; an update's is the
        # net.transport.request that carries it.
        root = next((i for i in members if tracer.parents[i] is None), None)
        if op is None or root is None or tracer.ends[root] is None:
            continue
        scale = 1.0 / slowdowns[op]
        root_time += (tracer.ends[root] - tracer.starts[root]) * scale
        pieces = _exclusive_pieces(tracer, root, members)
        exclusive_time += sum(end - start for start, end, _ in pieces) * scale
        if len({threads[i] for i in members}) == 1:
            for start, end, index in pieces:
                self_time[names[index]] += (end - start) * scale
            continue
        # Concurrent branches: an instant covered by k exclusive
        # intervals of running spans credits each with 1/k; waiting
        # spans share it only when nothing is running.
        events = sorted(
            [(start, 1, index) for start, _end, index in pieces]
            + [(end, 0, index) for _start, end, index in pieces])
        running, waiting = Counter(), Counter()
        previous = None
        for when, opening, index in events:
            credited = running or waiting
            if credited and when > previous:
                share = (when - previous) * scale / sum(credited.values())
                for name, count in credited.items():
                    self_time[name] += share * count
            previous = when
            name = names[index]
            active = waiting if name in WAITING_SPANS else running
            if opening:
                active[name] += 1
            else:
                active[name] -= 1
                if not active[name]:
                    del active[name]
    calls = tracer.calls()
    layers = {
        name: {
            "self_ms_per_op": self_time[name] * 1000.0 / len(slowdowns),
            "calls_per_op": calls[name] / len(slowdowns),
        }
        for name in SPAN_NAMES
    }
    totals = {"root_s": root_time, "self_s": sum(self_time.values()),
              "exclusive_s": exclusive_time}
    return layers, totals


def export(tracer, max_ops):
    """The spans of the first *max_ops* operations, JSON-ready."""
    number = {name: i for i, name in enumerate(SPAN_NAMES)}
    kept = [i for i, op in enumerate(tracer.ops)
            if op is not None and op < max_ops]
    renumber = {old: new for new, old in enumerate(kept)}
    return {
        "fields": ["name", "start_s", "end_s", "parent", "op", "thread"],
        "names": list(SPAN_NAMES),
        "spans": [
            [number[tracer.names[i]], tracer.starts[i], tracer.ends[i],
             renumber.get(tracer.parents[i]), tracer.ops[i],
             tracer.threads[i]]
            for i in kept
        ],
    }

"""Distributed query tracing: spans across sites, one tree per query.

The simulator already reconstructs per-query RPC trees offline
(:mod:`repro.sim.trace`); this module produces the same shape *online*,
from the real query path.  A :class:`Tracer` records :class:`Span`
objects -- named, timed intervals attributed to a site -- and a
:class:`TraceContext` (``trace_id`` + ``span_id``) rides on wire
messages so spans opened while *handling* a message parent-link to the
span that *sent* it, across sites and transports.

Design constraints:

* **Off by default, invisible when off.**  ``TRACER.span(...)`` returns
  a shared no-op context manager when tracing is disabled, and no
  trace context is attached to messages -- fault-free wire traffic is
  byte-identical to an untraced run.
* **Ambient propagation.**  The current span lives in a
  :class:`contextvars.ContextVar`; nested ``span()`` calls parent-link
  automatically.  Fan-out worker threads do not inherit context, so the
  dispatch paths wrap their callables with :func:`propagate`.
* **Cross-site assembly.**  Every span is self-describing
  (``trace_id``/``span_id``/``parent_id``/``site``), so span sets
  exported by several sites merge into one tree with
  :func:`assemble_trace`, and :func:`to_trace_node` converts that tree
  into the simulator's :class:`~repro.sim.trace.TraceNode` shape.
"""

import contextvars
import itertools
import os
import threading
import time

_CURRENT_SPAN = contextvars.ContextVar("repro-obs-current-span",
                                       default=None)


class TraceContext:
    """The wire-portable identity of a span: ``trace_id`` + ``span_id``.

    Encoded as ``"<trace_id>:<span_id>"`` in the optional ``trace``
    attribute of a message envelope (see
    :mod:`repro.net.messages` and ``docs/WIRE_FORMAT.md``).
    """

    __slots__ = ("trace_id", "span_id")

    def __init__(self, trace_id, span_id):
        self.trace_id = trace_id
        self.span_id = span_id

    def encode(self):
        return f"{self.trace_id}:{self.span_id}"

    @classmethod
    def decode(cls, text):
        trace_id, _, span_id = text.partition(":")
        if not trace_id or not span_id:
            return None
        return cls(trace_id, span_id)

    def __eq__(self, other):
        return (isinstance(other, TraceContext)
                and self.trace_id == other.trace_id
                and self.span_id == other.span_id)

    def __hash__(self):
        return hash((self.trace_id, self.span_id))

    def __repr__(self):
        return f"TraceContext({self.encode()!r})"


class Span:
    """One named, timed interval of work at one site."""

    __slots__ = ("trace_id", "span_id", "parent_id", "site", "name",
                 "started", "ended", "tags")

    def __init__(self, trace_id, span_id, parent_id, site, name,
                 started=0.0, ended=None, tags=None):
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.site = site
        self.name = name
        self.started = started
        self.ended = ended
        self.tags = dict(tags or {})

    @property
    def context(self):
        return TraceContext(self.trace_id, self.span_id)

    @property
    def duration(self):
        if self.ended is None:
            return 0.0
        return self.ended - self.started

    def set_tag(self, key, value):
        self.tags[key] = value

    def to_dict(self):
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "site": self.site,
            "name": self.name,
            "started": self.started,
            "ended": self.ended,
            "tags": dict(self.tags),
        }

    @classmethod
    def from_dict(cls, data):
        return cls(
            trace_id=data["trace_id"],
            span_id=data["span_id"],
            parent_id=data.get("parent_id"),
            site=data.get("site"),
            name=data.get("name", ""),
            started=data.get("started", 0.0),
            ended=data.get("ended"),
            tags=data.get("tags") or {},
        )

    def __repr__(self):
        return (f"Span({self.name!r}, site={self.site!r}, "
                f"id={self.span_id}, parent={self.parent_id})")


class _NullSpan:
    """The shared do-nothing span handed out while tracing is off."""

    __slots__ = ()

    context = None
    trace_id = None
    span_id = None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def set_tag(self, key, value):
        pass


_NULL_SPAN = _NullSpan()


class _ActiveSpan:
    """Context manager that opens, activates and records one span."""

    __slots__ = ("_tracer", "_span", "_token")

    def __init__(self, tracer, span):
        self._tracer = tracer
        self._span = span
        self._token = None

    @property
    def context(self):
        return self._span.context

    @property
    def trace_id(self):
        return self._span.trace_id

    @property
    def span_id(self):
        return self._span.span_id

    def set_tag(self, key, value):
        self._span.set_tag(key, value)

    def __enter__(self):
        self._token = _CURRENT_SPAN.set(self._span)
        return self

    def __exit__(self, exc_type, exc_value, _traceback):
        _CURRENT_SPAN.reset(self._token)
        self._span.ended = self._tracer.clock()
        if exc_type is not None:
            self._span.tags.setdefault(
                "error", f"{exc_type.__name__}: {exc_value}")
        self._tracer._record(self._span)
        return False


class Tracer:
    """Span factory + bounded in-memory collector (thread-safe).

    One tracer serves every site in the process (all in-process
    deployments share :data:`TRACER`); a genuinely multi-process
    deployment runs one per process and merges exports with
    :func:`assemble_trace`.
    """

    def __init__(self, clock=None, max_spans=50000):
        self.clock = clock or time.time
        self.enabled = False
        self.max_spans = max_spans
        self._lock = threading.Lock()
        self._spans = []
        self._seq = itertools.count(1)
        self._trace_seq = itertools.count(1)
        self._pid = os.getpid()
        self.stats = {"spans": 0, "dropped": 0, "traces_started": 0}

    # -- lifecycle ------------------------------------------------------
    def enable(self):
        self.enabled = True
        return self

    def disable(self):
        self.enabled = False
        return self

    def reset(self):
        """Drop collected spans and counters (tests, long processes)."""
        with self._lock:
            self._spans = []
            self.stats = {"spans": 0, "dropped": 0, "traces_started": 0}

    # -- span creation --------------------------------------------------
    def _new_id(self):
        return f"{self._pid:x}-{next(self._seq):x}"

    def span(self, name, site=None, tags=None, parent=None,
             remote_parent=None):
        """Open a span (use as a context manager).

        Parent resolution: an explicit *parent*
        (:class:`TraceContext`, active span, or :class:`Span`) wins;
        otherwise the ambient current span; otherwise *remote_parent*
        (the context carried by an incoming wire message); otherwise
        the span starts a fresh trace.  Returns the shared no-op span
        when tracing is disabled.
        """
        if not self.enabled:
            return _NULL_SPAN
        parent_ctx = None
        for candidate in (parent, _CURRENT_SPAN.get(), remote_parent):
            if candidate is None:
                continue
            ctx = getattr(candidate, "context", candidate)
            if isinstance(ctx, TraceContext):
                parent_ctx = ctx
                break
        if parent_ctx is None:
            trace_id = f"{self._pid:x}-t{next(self._trace_seq):x}"
            parent_id = None
            with self._lock:
                self.stats["traces_started"] += 1
        else:
            trace_id = parent_ctx.trace_id
            parent_id = parent_ctx.span_id
        span = Span(trace_id, self._new_id(), parent_id, site, name,
                    started=self.clock(), tags=tags)
        return _ActiveSpan(self, span)

    def _record(self, span):
        with self._lock:
            if len(self._spans) >= self.max_spans:
                self.stats["dropped"] += 1
                return
            self._spans.append(span)
            self.stats["spans"] += 1

    # -- ambient accessors ----------------------------------------------
    def current_trace_id(self):
        span = _CURRENT_SPAN.get()
        return span.trace_id if span is not None else None

    # -- collection -----------------------------------------------------
    def spans(self, trace_id=None):
        """Finished spans (optionally one trace's), in finish order."""
        with self._lock:
            spans = list(self._spans)
        if trace_id is not None:
            spans = [s for s in spans if s.trace_id == trace_id]
        return spans

    def trace_ids(self):
        seen = []
        for span in self.spans():
            if span.trace_id not in seen:
                seen.append(span.trace_id)
        return seen

    def export(self, trace_id=None):
        """Spans as JSON-able dicts (one site's contribution)."""
        return [span.to_dict() for span in self.spans(trace_id)]

    def trace_tree(self, trace_id):
        """Assemble this tracer's spans for *trace_id* into a tree."""
        return assemble_trace(self.spans(trace_id))


#: The process-wide tracer every in-process deployment shares.
TRACER = Tracer()


def enable_tracing():
    """Turn the shared tracer on; returns it for chaining."""
    return TRACER.enable()


def disable_tracing():
    return TRACER.disable()


def propagate(fn):
    """Wrap *fn* to run in the caller's ambient context.

    Executor worker threads do not inherit :mod:`contextvars`, so the
    fan-out paths wrap their per-subquery callables with this to keep
    span parentage intact.  Returns *fn* unchanged while tracing is
    off -- zero overhead on the hot path.
    """
    if not TRACER.enabled:
        return fn
    captured = contextvars.copy_context()

    def run(*args, **kwargs):
        return captured.copy().run(fn, *args, **kwargs)

    return run


def attach_context(message, span):
    """Stamp *span*'s context onto a wire message (no-op for null spans)."""
    context = getattr(span, "context", span)
    if context is not None:
        message.trace_ctx = context
    return message


class TraceTreeNode:
    """One span plus its children, assembled from collected spans."""

    __slots__ = ("span", "children")

    def __init__(self, span):
        self.span = span
        self.children = []

    def sites_touched(self):
        out = {self.span.site}
        for child in self.children:
            out |= child.sites_touched()
        return out - {None}

    def total_spans(self):
        return 1 + sum(child.total_spans() for child in self.children)

    def depth(self):
        if not self.children:
            return 1
        return 1 + max(child.depth() for child in self.children)

    def find_all(self, name):
        """Every node in the tree whose span has *name*, preorder."""
        out = []
        if self.span.name == name:
            out.append(self)
        for child in self.children:
            out.extend(child.find_all(name))
        return out

    def to_dict(self):
        return {
            "span": self.span.to_dict(),
            "children": [child.to_dict() for child in self.children],
        }

    def render(self, indent=0):
        """A human-readable indented tree."""
        pad = "  " * indent
        ms = self.span.duration * 1000
        line = (f"{pad}{self.span.name} @{self.span.site} "
                f"[{ms:.2f}ms]")
        if self.span.tags:
            tags = ", ".join(f"{k}={v}" for k, v in
                             sorted(self.span.tags.items()))
            line += f" ({tags})"
        lines = [line]
        for child in self.children:
            lines.append(child.render(indent + 1))
        return "\n".join(lines)

    def __repr__(self):
        return (f"TraceTreeNode({self.span.name!r}@{self.span.site!r}, "
                f"children={len(self.children)})")


def assemble_trace(spans):
    """Build one tree from spans (objects or exported dicts).

    Accepts contributions from several sites/processes: spans link by
    ``parent_id``, children are ordered by start time, and orphans
    (parent not in the set) become additional roots.  Returns the root
    :class:`TraceTreeNode` -- or a synthetic ``trace`` root when the
    set has several roots.
    """
    materialized = [
        span if isinstance(span, Span) else Span.from_dict(span)
        for span in spans
    ]
    if not materialized:
        return None
    nodes = {span.span_id: TraceTreeNode(span) for span in materialized}
    roots = []
    for span in sorted(materialized, key=lambda s: (s.started, s.span_id)):
        node = nodes[span.span_id]
        parent = nodes.get(span.parent_id) if span.parent_id else None
        if parent is None or parent is node:
            roots.append(node)
        else:
            parent.children.append(node)
    if len(roots) == 1:
        return roots[0]
    synthetic = Span(materialized[0].trace_id, "root", None, None, "trace",
                     started=min(s.started for s in materialized),
                     ended=max(s.ended or s.started for s in materialized))
    root = TraceTreeNode(synthetic)
    root.children = roots
    return root


def to_trace_node(tree):
    """Convert a :class:`TraceTreeNode` tree into the simulator's
    :class:`~repro.sim.trace.TraceNode` shape, so live traces replay
    through the same cost-model accounting as captured ones."""
    from repro.sim.trace import TraceNode

    node = TraceNode(tree.span.site, tree.span.name)
    node.request_size = int(tree.span.tags.get("request_size", 0) or 0)
    node.reply_size = int(tree.span.tags.get("reply_size", 0) or 0)
    for child in tree.children:
        node.children.append(to_trace_node(child))
    return node

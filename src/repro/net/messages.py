"""Wire messages exchanged between agents.

Messages encode to self-describing XML envelopes (parsed by our own
:mod:`repro.xmlkit`), so the same message types drive the synchronous
loopback network, the TCP runtime and the byte accounting in the
simulator's communication cost model.
"""

import itertools

from repro.net.errors import MessageError
from repro.obs.tracing import TraceContext
from repro.xmlkit.errors import XmlError
from repro.xmlkit.nodes import Element, Text
from repro.xmlkit.parser import parse_fragment
from repro.xmlkit.serializer import serialize

_SEQUENCE = itertools.count(1)

#: ``kind`` attribute -> message class, for :meth:`Message.decode`.
_KINDS = {}


def _next_id():
    return next(_SEQUENCE)


def register_kind(cls):
    """Class decorator: make *cls* decodable under its ``kind``.

    The kind-keyed envelope is the wire's one extension surface: a
    subsystem package registers its own kinds on import, and a process
    that never imported it rejects them as undecodable.
    """
    if _KINDS.setdefault(cls.kind, cls) is not cls:
        raise ValueError(f"message kind {cls.kind!r} is already registered")
    return cls


# ----------------------------------------------------------------------
# Envelope parts shared by several kinds
# ----------------------------------------------------------------------
def as_id_path(id_path):
    return tuple(tuple(entry) for entry in id_path)


def as_id_paths(id_paths):
    return [as_id_path(path) for path in id_paths]


def encode_id_path(id_path):
    holder = Element("path")
    for tag, identifier in id_path:
        entry = Element("entry", attrib={"tag": tag})
        if identifier is not None:
            entry.set("id", identifier)
        holder.append(entry)
    return holder


def decode_id_path(holder):
    return tuple(
        (entry.get("tag"), entry.get("id"))
        for entry in holder.element_children("entry")
    )


def encode_id_paths(id_paths):
    """A ``<paths>`` holder: one ``<path>`` per id path."""
    holder = Element("paths")
    for path in id_paths:
        holder.append(encode_id_path(path))
    return holder


def decode_id_paths(envelope):
    """The id paths under *envelope*'s ``<paths>`` (``[]`` if absent)."""
    holder = envelope.child("paths")
    if holder is None:
        return []
    return [decode_id_path(path) for path in holder.element_children("path")]


def _lend(holder, payload):
    """List *payload* under *holder* without adopting it.

    The envelope is a private transient that exists only to be
    serialized, so it borrows its payloads: *payload* keeps its parent
    (or none) and its version stamp, the serializer memoizes bytes on
    the payload's own nodes (and writes them back to database origins),
    and an exception leaves nothing to undo.
    """
    holder.children.append(payload)


def encode_fragment(fragment):
    """A ``<fragment>`` holder that lists *fragment* without owning it
    (see :func:`_lend`): the envelope serializes around the payload."""
    holder = Element("fragment")
    _lend(holder, fragment)
    return holder


def decode_fragment(parent):
    """The fragment under *parent*'s ``<fragment>`` holder, detached
    from the envelope, or ``None`` when the holder is absent or empty.

    The parsed envelope is private to :meth:`Message.decode`, so the
    subtree is handed over rather than copied.
    """
    holder = parent.child("fragment")
    if holder is None:
        return None
    fragment = next(holder.element_children(), None)
    return fragment.detach() if fragment is not None else None


def _encode_scalar(value):
    holder = Element("scalar", attrib={"type": type(value).__name__})
    if isinstance(value, bool):
        text = "true" if value else "false"
    else:
        text = str(value)
    holder.append(Text(text))
    return holder


def _decode_scalar(holder):
    type_name = holder.get("type")
    text = holder.text or ""
    if type_name == "bool":
        return text == "true"
    if type_name == "float":
        return float(text)
    if type_name == "int":
        return int(text)
    if type_name == "NoneType":
        return None
    return text


class Message:
    """Base class: kind dispatch plus XML envelope encoding.

    Messages are **frozen after construction** by convention: nothing
    enforces it, but :meth:`encode` memoizes the first serialization,
    so construction must stay the only mutation point.  Any future
    code path that edits a message after ``encode``/``encoded_size``
    has run (e.g. stamping ``sender`` on a relay or retry) must call
    :meth:`invalidate_encoding` afterwards or it will silently send
    stale bytes.
    """

    kind = "message"

    def __init__(self, sender=None, message_id=None):
        self.sender = sender
        self.message_id = message_id if message_id is not None else _next_id()
        #: Optional distributed-tracing context
        #: (:class:`~repro.obs.tracing.TraceContext`).  ``None`` -- the
        #: default, and the only value while tracing is disabled --
        #: adds nothing to the envelope, so untraced wire traffic is
        #: byte-identical to pre-tracing builds.  Set it (via
        #: :func:`repro.obs.tracing.attach_context`) before the first
        #: ``encode()``, like every other field.
        self.trace_ctx = None
        self._encoded = None

    # -- encoding -------------------------------------------------------
    def to_element(self):
        envelope = Element("message", attrib={
            "kind": self.kind,
            "id": str(self.message_id),
        })
        if self.sender is not None:
            envelope.set("sender", str(self.sender))
        if self.trace_ctx is not None:
            envelope.set("trace", self.trace_ctx.encode())
        self._fill(envelope)
        return envelope

    def _fill(self, envelope):
        raise NotImplementedError

    def encode(self):
        """The message as an XML string.

        Messages are write-once, so the envelope is built and
        serialized only on the first call; ``encoded_size`` plus the
        actual send then share one serialization.  The envelope is
        serialized *around* its fragment and result payloads (see
        :func:`_lend`): they are neither copied nor touched, and clean
        subtrees contribute their memoized bytes.  A decoded message
        keeps the bytes it arrived as, so sizing a received message
        serializes nothing.
        """
        if self._encoded is None:
            self._encoded = serialize(self.to_element())
        return self._encoded

    def invalidate_encoding(self):
        """Drop the memoized serialization after a field mutation.

        Must accompany any post-construction edit of message fields;
        see the class docstring.
        """
        self._encoded = None

    def encoded_size(self):
        """Approximate wire size in bytes."""
        return len(self.encode())

    @staticmethod
    def decode(text):
        """Parse an encoded message back into its typed object.

        Payload subtrees are detached from the parsed envelope, not
        copied, and *text* becomes the message's memoized encoding.
        Any malformed envelope -- unparsable XML, an unknown kind, a
        missing or ill-typed field -- raises :class:`MessageError`
        chained from the underlying error, so transports can treat an
        undecodable frame like any other failed exchange.
        """
        try:
            envelope = parse_fragment(text)
            kind = envelope.get("kind")
            cls = _KINDS.get(kind)
            if cls is None:
                raise MessageError(f"unknown message kind {kind!r}")
            message = cls(sender=envelope.get("sender"),
                          message_id=int(envelope.get("id")),
                          **cls._parse(envelope))
            trace = envelope.get("trace")
            if trace is not None:
                message.trace_ctx = TraceContext.decode(trace)
        except (XmlError, TypeError, ValueError, AttributeError,
                LookupError) as exc:
            raise MessageError(f"{type(exc).__name__}: {exc}") from exc
        message._encoded = text
        return message

    @staticmethod
    def _parse(envelope):
        """The constructor keywords *envelope*'s body decodes to
        (``sender`` and ``message_id`` are the envelope's own)."""
        raise NotImplementedError

    def __repr__(self):
        """Every field, payloads abbreviated, plus ``size=N`` once the
        message has been encoded (never forces an encode: repr must
        stay side-effect free)."""
        fields = "".join(
            f", {name}={_brief(value)}"
            for name, value in vars(self).items()
            if name not in ("message_id", "trace_ctx", "_encoded"))
        size = "" if self._encoded is None else f", size={len(self._encoded)}"
        return f"{type(self).__name__}(id={self.message_id}{fields}{size})"


def _brief(value):
    """One message field for ``repr``: elements by tag, collections by
    length, long strings cut."""
    if isinstance(value, Element):
        return f"<{value.tag}>"
    if isinstance(value, (list, tuple, dict)) and value:
        return f"{type(value).__name__}[{len(value)}]"
    text = repr(value)
    return text if len(text) <= 60 else f"{text[:57]}...{text[-1]}"


@register_kind
class QueryMessage(Message):
    """A user query or an inter-site subquery.

    ``now`` pins the query's clock reading so consistency predicates
    are evaluated against the asking site's notion of time; ``scalar``
    marks a scalar or aggregate query answered with a value (never a
    gather's subquery); ``user`` distinguishes user queries
    (answered with clean result lists) from subqueries (answered with
    generalized wire fragments).
    """

    kind = "query"

    def __init__(self, query, now=None, scalar=False, user=False,
                 sender=None, message_id=None):
        super().__init__(sender=sender, message_id=message_id)
        self.query = query
        self.now = now
        self.scalar = scalar
        self.user = user

    def _fill(self, envelope):
        if self.now is not None:
            envelope.set("now", repr(float(self.now)))
        envelope.set("scalar", "1" if self.scalar else "0")
        envelope.set("user", "1" if self.user else "0")
        envelope.append(Element("q", text=self.query))

    @staticmethod
    def _parse(envelope):
        now = envelope.get("now")
        return {
            "query": envelope.child("q").text or "",
            "now": float(now) if now is not None else None,
            "scalar": envelope.get("scalar") == "1",
            "user": envelope.get("user") == "1",
        }


@register_kind
class AnswerMessage(Message):
    """The reply to a :class:`QueryMessage`.

    Carries a wire fragment (subqueries), a scalar (scalar queries)
    or a list of clean result elements (user queries).  *completeness*
    is an optional machine-readable report (see
    :meth:`~repro.core.gather.GatherOutcome.completeness_report`)
    attached only when the answer is partial or served stale data --
    complete answers encode byte-identically to a report-free reply.
    """

    kind = "answer"

    def __init__(self, in_reply_to, fragment=None, scalar=None, results=None,
                 completeness=None, sender=None, message_id=None):
        super().__init__(sender=sender, message_id=message_id)
        self.in_reply_to = in_reply_to
        self.fragment = fragment
        self.scalar = scalar
        self.results = results
        self.completeness = completeness

    def _fill(self, envelope):
        envelope.set("replyTo", str(self.in_reply_to))
        if self.completeness is not None:
            envelope.append(_encode_completeness(self.completeness))
        if self.scalar is not None:
            envelope.append(_encode_scalar(self.scalar))
        if self.fragment is not None:
            envelope.append(encode_fragment(self.fragment))
        if self.results is not None:
            envelope.append(_encode_results(self.results))

    @staticmethod
    def _parse(envelope):
        scalar = None
        results = None
        scalar_holder = envelope.child("scalar")
        if scalar_holder is not None:
            scalar = _decode_scalar(scalar_holder)
        results_holder = envelope.child("results")
        if results_holder is not None:
            results = _decode_results(results_holder)
        completeness_holder = envelope.child("completeness")
        completeness = (
            _decode_completeness(completeness_holder)
            if completeness_holder is not None else None
        )
        return {
            "in_reply_to": int(envelope.get("replyTo")),
            "fragment": decode_fragment(envelope),
            "scalar": scalar,
            "results": results,
            "completeness": completeness,
        }


def _encode_results(results):
    """A ``<results>`` holder listing the result elements (lent, like a
    fragment) in order.

    Character data cannot sit between the elements -- the parser folds
    an element's text into one trailing node -- so a text result ships
    as ``<t v="..."/>`` and the holder's ``text`` attribute lists the
    positions that are text.  Element-only answers carry no attribute.
    """
    holder = Element("results")
    text_positions = []
    for position, result in enumerate(results):
        if isinstance(result, Element):
            _lend(holder, result)
        else:
            text_positions.append(str(position))
            holder.append(Element("t", attrib={"v": result.value}))
    if text_positions:
        holder.set("text", " ".join(text_positions))
    return holder


def _decode_results(holder):
    """The results under *holder*, detached from the envelope."""
    results = list(holder.element_children())
    holder.clear_children()
    for position in map(int, (holder.get("text") or "").split()):
        results[position] = Text(results[position].attrib["v"])
    return results


def _encode_completeness(report):
    holder = Element("completeness", attrib={
        "complete": "1" if report.get("complete") else "0",
    })
    for section in ("unreachable", "stale_served", "replica_too_stale"):
        for entry in report.get(section, ()):
            item = Element("miss", attrib={
                "section": section,
                "attempts": str(entry.get("attempts", 0)),
                "scalar": "1" if entry.get("scalar") else "0",
            })
            item.append(encode_id_path(entry.get("id_path", ())))
            item.append(Element("q", text=entry.get("query", "")))
            for cause in entry.get("causes", ()):
                item.append(Element("cause", text=cause))
            holder.append(item)
    # Regions a replica answered for a dead owner: present only when
    # failover actually served data, so replication-free (and
    # replication-disabled) reports encode byte-identically to before
    # the subsystem existed.
    for entry in report.get("served_by_replica", ()):
        item = Element("replica", attrib={
            "site": str(entry.get("replica", "")),
            "owner": str(entry.get("owner", "")),
            "age": repr(float(entry.get("age", 0.0))),
        })
        item.append(encode_id_path(entry.get("id_path", ())))
        item.append(Element("q", text=entry.get("query", "")))
        holder.append(item)
    return holder


def _decode_completeness(holder):
    report = {
        "complete": holder.get("complete") == "1",
        "unreachable": [],
        "stale_served": [],
        "served_by_replica": [],
        "replica_too_stale": [],
    }
    for item in holder.element_children("miss"):
        section = item.get("section")
        if section not in report:
            continue
        query = item.child("q")
        report[section].append({
            "id_path": [list(entry) for entry
                        in decode_id_path(item.child("path"))],
            "query": (query.text or "") if query is not None else "",
            "scalar": item.get("scalar") == "1",
            "attempts": int(item.get("attempts") or 0),
            "causes": [cause.text or ""
                       for cause in item.element_children("cause")],
        })
    for item in holder.element_children("replica"):
        query = item.child("q")
        report["served_by_replica"].append({
            "id_path": [list(entry) for entry
                        in decode_id_path(item.child("path"))],
            "query": (query.text or "") if query is not None else "",
            "replica": item.get("site") or "",
            "owner": item.get("owner") or "",
            "age": float(item.get("age") or 0.0),
        })
    return report


@register_kind
class BatchQueryMessage(Message):
    """Several subqueries for one destination site in one envelope.

    One gather round often asks the same remote site for several
    independent nodes; batching ships them in a single framed request
    (one round-trip, one dispatch at the remote) instead of one wire
    exchange per ask.  ``items`` is a list of ``(query, scalar)``
    pairs, answered positionally by a :class:`BatchAnswerMessage`.
    """

    kind = "batch-query"

    def __init__(self, items, now=None, sender=None, message_id=None):
        super().__init__(sender=sender, message_id=message_id)
        self.items = [(query, bool(scalar)) for query, scalar in items]
        self.now = now

    def _fill(self, envelope):
        if self.now is not None:
            envelope.set("now", repr(float(self.now)))
        for query, scalar in self.items:
            envelope.append(Element("sub",
                                    attrib={"scalar": "1" if scalar else "0"},
                                    text=query))

    @staticmethod
    def _parse(envelope):
        now = envelope.get("now")
        return {
            "items": [(sub.text or "", sub.get("scalar") == "1")
                      for sub in envelope.element_children("sub")],
            "now": float(now) if now is not None else None,
        }

    def __len__(self):
        return len(self.items)


@register_kind
class BatchAnswerMessage(Message):
    """Positional replies to a :class:`BatchQueryMessage`.

    ``answers`` holds one entry per batched item, in request order:
    a wire fragment :class:`~repro.xmlkit.nodes.Element`, a scalar
    wrapped as ``("scalar", value)``, or ``None`` when the remote had
    nothing.
    """

    kind = "batch-answer"

    def __init__(self, in_reply_to, answers, sender=None, message_id=None):
        super().__init__(sender=sender, message_id=message_id)
        self.in_reply_to = in_reply_to
        self.answers = list(answers)

    def _fill(self, envelope):
        envelope.set("replyTo", str(self.in_reply_to))
        for answer in self.answers:
            item = Element("item")
            if isinstance(answer, tuple) and answer and \
                    answer[0] == "scalar":
                item.append(_encode_scalar(answer[1]))
            elif answer is not None:
                item.append(encode_fragment(answer))
            envelope.append(item)

    @staticmethod
    def _parse(envelope):
        answers = []
        for item in envelope.element_children("item"):
            scalar_holder = item.child("scalar")
            if scalar_holder is not None:
                answers.append(("scalar", _decode_scalar(scalar_holder)))
            else:
                answers.append(decode_fragment(item))
        return {"in_reply_to": int(envelope.get("replyTo")),
                "answers": answers}

    def __len__(self):
        return len(self.answers)


@register_kind
class ErrorMessage(Message):
    """A structured failure reply.

    Sent instead of an answer when a peer could not process a request
    -- a handler exception, an undecodable frame, or an injected fault
    standing in for a broken site.  ``retryable`` tells the caller
    whether the same request may legitimately succeed on a retry
    (transient fault) or will deterministically fail again (handler
    bug, malformed request) and should not burn the attempt budget.
    """

    kind = "error"

    def __init__(self, in_reply_to, code="error", detail="", retryable=True,
                 sender=None, message_id=None):
        super().__init__(sender=sender, message_id=message_id)
        self.in_reply_to = int(in_reply_to)
        self.code = code
        self.detail = detail
        self.retryable = bool(retryable)

    def _fill(self, envelope):
        envelope.set("replyTo", str(self.in_reply_to))
        envelope.set("code", self.code)
        envelope.set("retryable", "1" if self.retryable else "0")
        if self.detail:
            envelope.append(Element("detail", text=self.detail))

    @staticmethod
    def _parse(envelope):
        detail = envelope.child("detail")
        return {
            "in_reply_to": int(envelope.get("replyTo")),
            "code": envelope.get("code") or "error",
            "detail": (detail.text or "") if detail is not None else "",
            "retryable": envelope.get("retryable") == "1",
        }


@register_kind
class UpdateMessage(Message):
    """A sensor update from an SA (or a forward from a non-owner OA)."""

    kind = "update"

    def __init__(self, id_path, attributes=None, values=None, sender=None,
                 message_id=None):
        super().__init__(sender=sender, message_id=message_id)
        self.id_path = as_id_path(id_path)
        self.attributes = dict(attributes or {})
        self.values = dict(values or {})

    def _fill(self, envelope):
        envelope.append(encode_id_path(self.id_path))
        attrs = Element("attrs")
        for name, value in self.attributes.items():
            attrs.append(Element("a", attrib={"name": name, "value": value}))
        envelope.append(attrs)
        values = Element("values")
        for tag, text in self.values.items():
            values.append(Element("v", attrib={"name": tag}, text=str(text)))
        envelope.append(values)

    @staticmethod
    def _parse(envelope):
        return {
            "id_path": decode_id_path(envelope.child("path")),
            "attributes": {
                a.get("name"): a.get("value")
                for a in envelope.child("attrs").element_children("a")
            },
            "values": {
                v.get("name"): (v.text or "")
                for v in envelope.child("values").element_children("v")
            },
        }


@register_kind
class AckMessage(Message):
    """A generic acknowledgement."""

    kind = "ack"

    def __init__(self, in_reply_to, ok=True, detail="", sender=None,
                 message_id=None):
        super().__init__(sender=sender, message_id=message_id)
        self.in_reply_to = in_reply_to
        self.ok = ok
        self.detail = detail

    def _fill(self, envelope):
        envelope.set("replyTo", str(self.in_reply_to))
        envelope.set("ok", "1" if self.ok else "0")
        if self.detail:
            envelope.append(Element("detail", text=self.detail))

    @staticmethod
    def _parse(envelope):
        detail = envelope.child("detail")
        return {
            "in_reply_to": int(envelope.get("replyTo")),
            "ok": envelope.get("ok") == "1",
            "detail": (detail.text or "") if detail is not None else "",
        }


@register_kind
class AdoptMessage(Message):
    """Ownership migration: "take ownership of these nodes" (steps 1-3).

    Carries the wire fragment exported by the old owner and the ID
    paths of every node changing hands.
    """

    kind = "adopt"

    def __init__(self, id_paths, fragment, sender=None, message_id=None):
        super().__init__(sender=sender, message_id=message_id)
        self.id_paths = as_id_paths(id_paths)
        self.fragment = fragment

    def _fill(self, envelope):
        envelope.append(encode_id_paths(self.id_paths))
        envelope.append(encode_fragment(self.fragment))

    @staticmethod
    def _parse(envelope):
        return {"id_paths": decode_id_paths(envelope),
                "fragment": decode_fragment(envelope)}


@register_kind
class MigrateReleaseMessage(Message):
    """Migration rollback: "release the nodes I asked you to adopt".

    Sent by a migrating owner whose adopt exchange failed after the
    request may already have been delivered (reply lost, connection
    reset).  Adoption is idempotent, so the only dangerous outcome is
    *dual ownership*; this message tells the would-be adopter to demote
    the listed paths back to cached copies.  It is best-effort -- if it
    is lost too, the balancer's DNS-authority reconciliation pass
    demotes the loser on a later tick.
    """

    kind = "migrate-release"

    def __init__(self, id_paths, sender=None, message_id=None):
        super().__init__(sender=sender, message_id=message_id)
        self.id_paths = as_id_paths(id_paths)

    def _fill(self, envelope):
        envelope.append(encode_id_paths(self.id_paths))

    @staticmethod
    def _parse(envelope):
        return {"id_paths": decode_id_paths(envelope)}

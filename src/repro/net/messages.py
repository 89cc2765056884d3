"""Wire messages exchanged between agents.

Messages encode to self-describing XML envelopes (parsed by
:mod:`repro.xmlkit`'s builder over the standard library's expat), so
the same message types drive the synchronous loopback network, the TCP
runtime and the byte accounting in the simulator's communication cost
model.
"""

import itertools
from collections import namedtuple

from repro.core.answer import private_copy
from repro.core.status import INTERNAL_ATTRIBUTES, clean_copy
from repro.net.errors import MessageError
from repro.obs.tracing import TraceContext
from repro.xmlkit.errors import XmlError
from repro.xmlkit.nodes import Element, Text, own_children
from repro.xmlkit.parser import parse_fragment
# An envelope is private and serialized once: the memo serves only the
# payloads it lends (``serialize`` is the name benchmarks/layers times).
from repro.xmlkit.serializer import Stripped
from repro.xmlkit.serializer import serialize_around as serialize

_SEQUENCE = itertools.count(1)

#: ``kind`` attribute -> message class, for :meth:`Message.decode`.
_KINDS = {}


def _next_id():
    return next(_SEQUENCE)


def register_kind(cls):
    """Class decorator: make *cls* decodable under its ``kind``.

    Every kind the system sends is registered here, in this module: a
    subsystem's asks travel as ``query`` items, so the seam adds
    handlers, not kinds.  A kind no registered class has is rejected as
    undecodable.
    """
    if _KINDS.setdefault(cls.kind, cls) is not cls:
        raise ValueError(f"message kind {cls.kind!r} is already registered")
    return cls


# ----------------------------------------------------------------------
# Envelope parts shared by several kinds
# ----------------------------------------------------------------------
def as_id_path(id_path):
    return tuple(tuple(entry) for entry in id_path)


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


def _lend(holder, payload):
    """List *payload* under *holder* without adopting it.

    The envelope is a private transient that exists only to be
    serialized, so it borrows its payloads: *payload* keeps its parent
    (or none) and its version stamp, the serializer memoizes bytes on
    the payload's own nodes (stored subtrees a reply lends among them),
    and an exception leaves nothing to undo.
    """
    own_children(holder).append(payload)


def encode_fragment(fragment):
    """A ``<fragment>`` holder that lists *fragment* without owning it
    (see :func:`_lend`): the envelope serializes around the payload."""
    holder = Element("fragment")
    _lend(holder, fragment)
    return holder


def decode_fragment(holder):
    """The fragment in a ``<fragment>`` *holder*, detached from the
    envelope, or ``None`` when the holder is absent or empty.

    The parsed envelope is private to :meth:`Message.decode`, so the
    subtree is handed over rather than copied.
    """
    if holder is None:
        return None
    fragment = next(holder.element_children(), None)
    return fragment.detach() if fragment is not None else None


def _encode_scalar(value):
    if isinstance(value, bool):
        text = "true" if value else "false"
    else:
        text = str(value)
    return Element("scalar", attrib={"type": type(value).__name__}, text=text)


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
        :func:`_lend`): they are neither copied nor touched, clean
        subtrees contribute their memoized bytes, and the envelope's
        own nodes are memoized nowhere.  A decoded message
        keeps the bytes it arrived as, so sizing a received message
        serializes nothing.  The envelope is nobody else's, so it is
        disposed once serialized; its lent payloads are not its own and
        stay as they were.
        """
        if self._encoded is None:
            envelope = self.to_element()
            self._encoded = serialize(envelope)
            envelope.dispose()
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
        copied, and the rest of the envelope is disposed: nothing else
        ever sees it.  *text* becomes the message's memoized encoding.
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
            envelope.dispose()
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


#: One item of a ``query``: the ask's text, plus -- for a rollup's ask
#: -- *fold*, the last step its owner's fold reads off each match
#: (``"."``: the match itself), and *bound*, the ask's tightest
#: freshness bound in seconds (``None``: none).
Ask = namedtuple("Ask", "query fold bound", defaults=(None, None))

#: One item's reply in an ``answer``: the *holder* it travels in
#: (``fragment``, ``scalar``, ``results`` or ``state``), its *value*,
#: and *left*, the reasons of what a ``no_forward`` ask left unanswered.
ItemAnswer = namedtuple("ItemAnswer", "holder value left", defaults=((),))


@register_kind
class QueryMessage(Message):
    """A user query, or one or more asks of a peer, answered in order.

    *query* is one query text or a list of items (texts or
    :class:`Ask`), kept as ``items``; ``query`` reads the first.  A
    rollup's item carries its fold's last step and bound, and its owner
    answers it with a partial.  ``now`` pins the query's clock reading
    so consistency predicates are evaluated against the asking site's
    notion of time; ``scalar`` marks a scalar or aggregate query
    answered with a value (never a gather's ask); ``user``
    distinguishes user queries (answered with clean result lists) from
    asks (answered with generalized wire fragments).  A ``scalar`` or
    ``user`` query has exactly one item.  ``no_forward`` asks the site
    to answer from its own fragment and forward nothing (read failover
    asking a dead owner's ring peer); its reply lists what was left
    unanswered.  Encoded only when set.
    """

    kind = "query"

    def __init__(self, query, now=None, scalar=False, user=False,
                 no_forward=False, sender=None, message_id=None):
        super().__init__(sender=sender, message_id=message_id)
        items = [query] if isinstance(query, str) else query
        self.items = [item if isinstance(item, Ask) else Ask(item)
                      for item in items]
        if not self.items or (scalar or user) and len(self.items) > 1:
            raise ValueError(f"a query cannot carry {len(self.items)} "
                             f"{'scalar ' if scalar else ''}asks")
        self.now = now
        self.scalar = scalar
        self.user = user
        self.no_forward = no_forward

    @property
    def query(self):
        return self.items[0].query

    def _fill(self, envelope):
        if self.now is not None:
            envelope.set("now", repr(float(self.now)))
        envelope.set("scalar", "1" if self.scalar else "0")
        envelope.set("user", "1" if self.user else "0")
        if self.no_forward:
            envelope.set("noforward", "1")
        for item in self.items:
            holder = Element("q", text=item.query)
            if item.fold is not None:
                holder.set("fold", item.fold)
                if item.bound is not None:
                    holder.set("bound", repr(float(item.bound)))
            envelope.append(holder)

    @staticmethod
    def _parse(envelope):
        now = envelope.get("now")
        return {
            "query": [Ask(holder.text or "", holder.get("fold"),
                          _optional_float(holder.get("bound")))
                      for holder in envelope.element_children("q")],
            "now": _optional_float(now),
            "scalar": envelope.get("scalar") == "1",
            "user": envelope.get("user") == "1",
            "no_forward": envelope.get("noforward") == "1",
        }


def _optional_float(text):
    return float(text) if text is not None else None


def _encode_left(holder, left):
    """Set *holder*'s ``left`` attribute: the reasons of the asks a
    ``no_forward`` answer left unanswered (nothing when there are none)."""
    if left:
        holder.set("left", " ".join(left))


def _decode_left(holder):
    return tuple((holder.get("left") or "").split())


@register_kind
class AnswerMessage(Message):
    """The reply to a :class:`QueryMessage`: ``answers``, one
    :class:`ItemAnswer` per item, in order.

    An item's answer travels in one holder: a wire fragment (an ask;
    ``None`` when the remote had nothing), a scalar (a scalar query), a
    list of result elements, written without ``status`` (a user query),
    or a ``state`` (a
    rollup's ask: the owner's merge-state, ``{region id_path:
    (Partial, as_of)}``).  The keywords build a one-item answer;
    ``fragment``, ``scalar``, ``results`` and ``left`` read the first
    item that has one.  A one-item answer keeps its ``left``
    on the envelope and sends no holder for nothing; with several
    items, each holder carries its own ``left`` and an empty
    ``<fragment/>`` stands for nothing.  *completeness* is an optional
    machine-readable report (see
    :meth:`~repro.core.gather.GatherOutcome.completeness_report`)
    attached only when the answer is partial or replica-served --
    complete answers encode byte-identically to a report-free reply.
    *left* answers a ``no_forward`` ask: the reasons (``Subquery``
    reasons, ``stale-cache`` for a copy too old for the ask's bound) of
    the asks the site left unanswered, empty when it answered all.
    """

    kind = "answer"

    def __init__(self, in_reply_to, fragment=None, scalar=None, results=None,
                 completeness=None, left=(), answers=None, sender=None,
                 message_id=None):
        super().__init__(sender=sender, message_id=message_id)
        self.in_reply_to = in_reply_to
        if answers is None:
            answers = [ItemAnswer(holder, value) for holder, value in (
                ("scalar", scalar), ("fragment", fragment),
                ("results", results)) if value is not None] or \
                [ItemAnswer("fragment", None)]
            answers[0] = answers[0]._replace(left=tuple(left))
        self.answers = list(answers)
        self.completeness = completeness

    def _first(self, holder):
        return next((answer.value for answer in self.answers
                     if answer.holder == holder), None)

    @property
    def fragment(self):
        return self._first("fragment")

    @property
    def scalar(self):
        return self._first("scalar")

    @property
    def results(self):
        return self._first("results")

    @property
    def left(self):
        return self.answers[0].left

    def hand_over(self):
        """Swap every tree this reply lends for a private copy: each
        stored subtree a fragment lists for a copy, its skeleton --
        built for this reply alone -- kept
        (:func:`~repro.core.answer.private_copy`); results for clean
        copies.

        For a receiver in the serving site's process, which keeps what
        it is handed; called under the serving site's guard, after any
        encoding, which the copies leave valid.
        """
        answers = []
        for answer in self.answers:
            value = answer.value
            if answer.holder == "fragment" and value is not None:
                answer = answer._replace(value=private_copy(value))
            elif answer.holder == "results":
                answer = answer._replace(
                    value=[clean_copy(result) for result in value])
            answers.append(answer)
        self.answers = answers

    def _fill(self, envelope):
        envelope.set("replyTo", str(self.in_reply_to))
        one = len(self.answers) == 1
        if one:
            _encode_left(envelope, self.left)
        if self.completeness is not None:
            envelope.append(_encode_completeness(self.completeness))
        for answer in self.answers:
            if one and answer.value is None:
                continue
            holder = _encode_holder(answer.holder, answer.value)
            if not one:
                _encode_left(holder, answer.left)
            envelope.append(holder)

    @staticmethod
    def _parse(envelope):
        completeness_holder = envelope.child("completeness")
        holders = [holder for holder in envelope.element_children()
                   if holder is not completeness_holder]
        if len(holders) > 1:
            answers = [ItemAnswer(holder.tag, _decode_holder(holder),
                                  _decode_left(holder))
                       for holder in holders]
        elif holders:
            answers = [ItemAnswer(holders[0].tag,
                                  _decode_holder(holders[0]),
                                  _decode_left(envelope))]
        else:
            answers = [ItemAnswer("fragment", None, _decode_left(envelope))]
        return {
            "in_reply_to": int(envelope.get("replyTo")),
            "answers": answers,
            "completeness": (
                _decode_completeness(completeness_holder)
                if completeness_holder is not None else None),
        }


def _encode_holder(holder, value):
    """The ``<holder>`` element an item's *value* travels in."""
    if holder == "fragment":
        return Element("fragment") if value is None \
            else encode_fragment(value)
    if holder == "scalar":
        return _encode_scalar(value)
    if holder == "results":
        return _encode_results(value)
    if holder == "state":
        return _encode_state(value)
    raise ValueError(f"no answer holder {holder!r}")


def _decode_holder(holder):
    """The value an item's *holder* carries, detached from the envelope."""
    if holder.tag == "fragment":
        return decode_fragment(holder)
    if holder.tag == "scalar":
        return _decode_scalar(holder)
    if holder.tag == "results":
        return _decode_results(holder)
    if holder.tag == "state":
        return _decode_state(holder)
    raise ValueError(f"no answer holder {holder.tag!r}")


def _encode_state(state):
    """A ``<state>`` holder: one ``<part>`` per region, the partial's
    exact encoding (see :meth:`repro.agg.partial.Partial.to_attrs`) and
    its as-of time ``ts``, so any merge order at the asker reproduces
    the same aggregate."""
    holder = Element("state")
    for region in sorted(state, key=repr):
        partial, as_of = state[region]
        part = Element("part", attrib=partial.to_attrs())
        part.set("ts", repr(float(as_of)))
        part.append(encode_id_path(region))
        holder.append(part)
    return holder


def _decode_state(holder):
    # The agent's world loads aggregation: by the first decode it is in.
    from repro.agg.partial import Partial

    return {decode_id_path(part.child("path")):
            (Partial.from_attrs(part.attrib), float(part.get("ts")))
            for part in holder.element_children("part")}


def _encode_results(results):
    """A ``<results>`` holder listing the result elements (lent, like a
    fragment, and written without the internal ``status``) in order.

    Character data cannot sit between the elements -- an element's text
    is one string after its child elements -- so a text result ships
    as ``<t v="..."/>`` and the holder's ``text`` attribute lists the
    positions that are text.  Element-only answers carry no attribute.
    """
    holder = Element("results")
    text_positions = []
    for position, result in enumerate(results):
        if isinstance(result, Element):
            _lend(holder, Stripped(result, INTERNAL_ATTRIBUTES))
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
    for section in ("unreachable", "replica_too_stale"):
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
class ReplicateMessage(Message):
    """A push of an owner's data: a replica refresh, or the first step
    of a migration.

    Carries a wire fragment (C1/C2, root-rooted -- the same shape as any
    generalized answer) of the owner's local information, which every
    agent merges into its own fragment as cached ``complete`` data and
    acknowledges.  The merge's newer-timestamp rule drops a reordered
    older push, so a push is idempotent, and it never makes its
    receiver an owner.
    """

    kind = "replicate"

    def __init__(self, fragment, sender=None, message_id=None):
        super().__init__(sender=sender, message_id=message_id)
        self.fragment = fragment

    def _fill(self, envelope):
        envelope.append(encode_fragment(self.fragment))

    @staticmethod
    def _parse(envelope):
        return {"fragment": decode_fragment(envelope.child("fragment"))}

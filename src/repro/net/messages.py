"""Wire messages exchanged between agents.

Messages encode to self-describing XML envelopes (parsed by our own
:mod:`repro.xmlkit`), so the same message types drive the synchronous
loopback network, the TCP runtime and the byte accounting in the
simulator's communication cost model.
"""

import itertools

from repro.core.status import strip_internal_attributes
from repro.net.errors import MessageError
from repro.obs.tracing import TraceContext
from repro.xmlkit.nodes import Element, Text
from repro.xmlkit.parser import parse_fragment
from repro.xmlkit.serializer import serialize

_SEQUENCE = itertools.count(1)


def _next_id():
    return next(_SEQUENCE)


def _encode_id_path(id_path):
    holder = Element("path")
    for tag, identifier in id_path:
        entry = Element("entry", attrib={"tag": tag})
        if identifier is not None:
            entry.set("id", identifier)
        holder.append(entry)
    return holder


def _decode_id_path(holder):
    return tuple(
        (entry.get("tag"), entry.get("id"))
        for entry in holder.element_children("entry")
    )


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
        actual send then share one serialization.  Fragment payloads
        are copied into the envelope with their serialization memos
        intact, so clean subtrees contribute their cached bytes.
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
        """Parse an encoded message back into its typed object."""
        envelope = parse_fragment(text)
        kind = envelope.get("kind")
        cls = _KINDS.get(kind)
        if cls is None:
            raise MessageError(f"unknown message kind {kind!r}")
        message = cls._parse(envelope)
        trace = envelope.get("trace")
        if trace is not None:
            message.trace_ctx = TraceContext.decode(trace)
        return message

    @classmethod
    def _parse(cls, envelope):
        raise NotImplementedError

    def _repr_size(self):
        """``, size=N`` once the message has been encoded (never forces
        an encode: repr must stay side-effect free)."""
        if self._encoded is None:
            return ""
        return f", size={len(self._encoded)}"

    def __repr__(self):
        return (f"{type(self).__name__}(id={self.message_id}, "
                f"kind={self.kind!r}{self._repr_size()})")


class QueryMessage(Message):
    """A user query or an inter-site subquery.

    ``now`` pins the query's clock reading so consistency predicates
    are evaluated against the asking site's notion of time; ``scalar``
    marks boolean/aggregate probes; ``user`` distinguishes user queries
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

    @classmethod
    def _parse(cls, envelope):
        q = envelope.child("q")
        now = envelope.get("now")
        return cls(
            query=q.text or "",
            now=float(now) if now is not None else None,
            scalar=envelope.get("scalar") == "1",
            user=envelope.get("user") == "1",
            sender=envelope.get("sender"),
            message_id=int(envelope.get("id")),
        )

    def __repr__(self):
        flags = "".join((
            " scalar" if self.scalar else "",
            " user" if self.user else "",
        ))
        return (f"QueryMessage(id={self.message_id}, "
                f"query={self.query!r},{flags} "
                f"sender={self.sender!r}{self._repr_size()})")


class AnswerMessage(Message):
    """The reply to a :class:`QueryMessage`.

    Carries a wire fragment (subqueries), a scalar (probes/aggregates)
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
            holder = Element("scalar",
                             attrib={"type": type(self.scalar).__name__})
            holder.append(Text(_scalar_to_text(self.scalar)))
            envelope.append(holder)
        if self.fragment is not None:
            holder = Element("fragment")
            holder.append(self.fragment.copy())
            envelope.append(holder)
        if self.results is not None:
            holder = Element("results")
            for result in self.results:
                if isinstance(result, Element):
                    holder.append(result.copy())
                else:
                    holder.append(Text(result.value))
            envelope.append(holder)

    @classmethod
    def _parse(cls, envelope):
        fragment = None
        scalar = None
        results = None
        holder = envelope.child("fragment")
        if holder is not None:
            children = list(holder.element_children())
            fragment = children[0].copy() if children else None
        scalar_holder = envelope.child("scalar")
        if scalar_holder is not None:
            scalar = _scalar_from_text(scalar_holder.get("type"),
                                       scalar_holder.text or "")
        results_holder = envelope.child("results")
        if results_holder is not None:
            results = [child.copy() for child in
                       results_holder.element_children()]
        completeness_holder = envelope.child("completeness")
        completeness = (
            _decode_completeness(completeness_holder)
            if completeness_holder is not None else None
        )
        return cls(
            in_reply_to=int(envelope.get("replyTo")),
            fragment=fragment,
            scalar=scalar,
            results=results,
            completeness=completeness,
            sender=envelope.get("sender"),
            message_id=int(envelope.get("id")),
        )

    def __repr__(self):
        if self.results is not None:
            payload = f"results={len(self.results)}"
        elif self.fragment is not None:
            payload = f"fragment=<{self.fragment.tag}>"
        elif self.scalar is not None:
            payload = f"scalar={self.scalar!r}"
        else:
            payload = "empty"
        partial = ""
        if self.completeness is not None and \
                not self.completeness.get("complete", True):
            partial = ", PARTIAL"
        return (f"AnswerMessage(id={self.message_id}, "
                f"replyTo={self.in_reply_to}, {payload}{partial}, "
                f"sender={self.sender!r}{self._repr_size()})")


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
            item.append(_encode_id_path(entry.get("id_path", ())))
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
        item.append(_encode_id_path(entry.get("id_path", ())))
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
                        in _decode_id_path(item.child("path"))],
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
                        in _decode_id_path(item.child("path"))],
            "query": (query.text or "") if query is not None else "",
            "replica": item.get("site") or "",
            "owner": item.get("owner") or "",
            "age": float(item.get("age") or 0.0),
        })
    return report


def _scalar_to_text(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _scalar_from_text(type_name, text):
    if type_name == "bool":
        return text == "true"
    if type_name == "float":
        return float(text)
    if type_name == "int":
        return int(text)
    if type_name == "NoneType":
        return None
    return text


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

    @classmethod
    def _parse(cls, envelope):
        now = envelope.get("now")
        return cls(
            items=[(sub.text or "", sub.get("scalar") == "1")
                   for sub in envelope.element_children("sub")],
            now=float(now) if now is not None else None,
            sender=envelope.get("sender"),
            message_id=int(envelope.get("id")),
        )

    def __len__(self):
        return len(self.items)

    def __repr__(self):
        preview = self.items[0][0] if self.items else ""
        return (f"BatchQueryMessage(id={self.message_id}, "
                f"items={len(self.items)}, first={preview!r}, "
                f"sender={self.sender!r}{self._repr_size()})")


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
                value = answer[1]
                holder = Element("scalar",
                                 attrib={"type": type(value).__name__})
                holder.append(Text(_scalar_to_text(value)))
                item.append(holder)
            elif answer is not None:
                holder = Element("fragment")
                holder.append(answer.copy())
                item.append(holder)
            envelope.append(item)

    @classmethod
    def _parse(cls, envelope):
        answers = []
        for item in envelope.element_children("item"):
            scalar_holder = item.child("scalar")
            fragment_holder = item.child("fragment")
            if scalar_holder is not None:
                answers.append(("scalar",
                                _scalar_from_text(scalar_holder.get("type"),
                                                  scalar_holder.text or "")))
            elif fragment_holder is not None:
                children = list(fragment_holder.element_children())
                answers.append(children[0].copy() if children else None)
            else:
                answers.append(None)
        return cls(
            in_reply_to=int(envelope.get("replyTo")),
            answers=answers,
            sender=envelope.get("sender"),
            message_id=int(envelope.get("id")),
        )

    def __len__(self):
        return len(self.answers)

    def __repr__(self):
        return (f"BatchAnswerMessage(id={self.message_id}, "
                f"replyTo={self.in_reply_to}, "
                f"answers={len(self.answers)}, "
                f"sender={self.sender!r}{self._repr_size()})")


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

    @classmethod
    def _parse(cls, envelope):
        detail = envelope.child("detail")
        return cls(
            in_reply_to=int(envelope.get("replyTo")),
            code=envelope.get("code") or "error",
            detail=(detail.text or "") if detail is not None else "",
            retryable=envelope.get("retryable") == "1",
            sender=envelope.get("sender"),
            message_id=int(envelope.get("id")),
        )

    def __repr__(self):
        retry = "retryable" if self.retryable else "terminal"
        return (f"ErrorMessage(id={self.message_id}, "
                f"replyTo={self.in_reply_to}, code={self.code!r}, "
                f"{retry}, sender={self.sender!r}{self._repr_size()})")


class UpdateMessage(Message):
    """A sensor update from an SA (or a forward from a non-owner OA)."""

    kind = "update"

    def __init__(self, id_path, attributes=None, values=None, sender=None,
                 message_id=None):
        super().__init__(sender=sender, message_id=message_id)
        self.id_path = tuple(tuple(entry) for entry in id_path)
        self.attributes = dict(attributes or {})
        self.values = dict(values or {})

    def _fill(self, envelope):
        envelope.append(_encode_id_path(self.id_path))
        attrs = Element("attrs")
        for name, value in self.attributes.items():
            attrs.append(Element("a", attrib={"name": name, "value": value}))
        envelope.append(attrs)
        values = Element("values")
        for tag, text in self.values.items():
            values.append(Element("v", attrib={"name": tag}, text=str(text)))
        envelope.append(values)

    @classmethod
    def _parse(cls, envelope):
        attributes = {
            a.get("name"): a.get("value")
            for a in envelope.child("attrs").element_children("a")
        }
        values = {
            v.get("name"): (v.text or "")
            for v in envelope.child("values").element_children("v")
        }
        return cls(
            id_path=_decode_id_path(envelope.child("path")),
            attributes=attributes,
            values=values,
            sender=envelope.get("sender"),
            message_id=int(envelope.get("id")),
        )

    def __repr__(self):
        target = "/".join(
            f"{tag}={identifier}" for tag, identifier in self.id_path)
        return (f"UpdateMessage(id={self.message_id}, target={target!r}, "
                f"values={len(self.values)}, "
                f"sender={self.sender!r}{self._repr_size()})")


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

    @classmethod
    def _parse(cls, envelope):
        detail = envelope.child("detail")
        return cls(
            in_reply_to=int(envelope.get("replyTo")),
            ok=envelope.get("ok") == "1",
            detail=(detail.text or "") if detail is not None else "",
            sender=envelope.get("sender"),
            message_id=int(envelope.get("id")),
        )

    def __repr__(self):
        status = "ok" if self.ok else f"refused {self.detail!r}"
        return (f"AckMessage(id={self.message_id}, "
                f"replyTo={self.in_reply_to}, {status}, "
                f"sender={self.sender!r}{self._repr_size()})")


class AdoptMessage(Message):
    """Ownership migration: "take ownership of these nodes" (steps 1-3).

    Carries the wire fragment exported by the old owner and the ID
    paths of every node changing hands.
    """

    kind = "adopt"

    def __init__(self, id_paths, fragment, sender=None, message_id=None):
        super().__init__(sender=sender, message_id=message_id)
        self.id_paths = [tuple(tuple(e) for e in path) for path in id_paths]
        self.fragment = fragment

    def _fill(self, envelope):
        paths = Element("paths")
        for path in self.id_paths:
            paths.append(_encode_id_path(path))
        envelope.append(paths)
        holder = Element("fragment")
        holder.append(self.fragment.copy())
        envelope.append(holder)

    @classmethod
    def _parse(cls, envelope):
        paths = [
            _decode_id_path(p)
            for p in envelope.child("paths").element_children("path")
        ]
        children = list(envelope.child("fragment").element_children())
        return cls(
            id_paths=paths,
            fragment=children[0].copy() if children else None,
            sender=envelope.get("sender"),
            message_id=int(envelope.get("id")),
        )

    def __repr__(self):
        return (f"AdoptMessage(id={self.message_id}, "
                f"nodes={len(self.id_paths)}, "
                f"sender={self.sender!r}{self._repr_size()})")


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
        self.id_paths = [tuple(tuple(e) for e in path) for path in id_paths]

    def _fill(self, envelope):
        paths = Element("paths")
        for path in self.id_paths:
            paths.append(_encode_id_path(path))
        envelope.append(paths)

    @classmethod
    def _parse(cls, envelope):
        paths = [
            _decode_id_path(p)
            for p in envelope.child("paths").element_children("path")
        ]
        return cls(
            id_paths=paths,
            sender=envelope.get("sender"),
            message_id=int(envelope.get("id")),
        )

    def __repr__(self):
        return (f"MigrateReleaseMessage(id={self.message_id}, "
                f"nodes={len(self.id_paths)}, "
                f"sender={self.sender!r}{self._repr_size()})")


class ReplicaRetireMessage(Message):
    """Ring re-placement: "drop the replicas you hold for me here".

    After an owner migrates a subtree away, the replicas it pushed to
    its ring successors are stale forever -- the new owner replicates
    to *its own* successors instead.  Retiring them keeps a later
    failover from serving the frozen copy.  One-way and best-effort,
    like :class:`ReplicateMessage`.
    """

    kind = "replica-retire"

    def __init__(self, owner, id_paths, sender=None, message_id=None):
        super().__init__(sender=sender, message_id=message_id)
        self.owner = owner
        self.id_paths = [tuple(tuple(e) for e in path) for path in id_paths]

    def _fill(self, envelope):
        envelope.set("owner", self.owner)
        paths = Element("paths")
        for path in self.id_paths:
            paths.append(_encode_id_path(path))
        envelope.append(paths)

    @classmethod
    def _parse(cls, envelope):
        paths = [
            _decode_id_path(p)
            for p in envelope.child("paths").element_children("path")
        ]
        return cls(
            owner=envelope.get("owner"),
            id_paths=paths,
            sender=envelope.get("sender"),
            message_id=int(envelope.get("id")),
        )

    def __repr__(self):
        return (f"ReplicaRetireMessage(id={self.message_id}, "
                f"owner={self.owner!r}, nodes={len(self.id_paths)}, "
                f"sender={self.sender!r}{self._repr_size()})")


def _encode_stamps(stamps):
    """``{id_path: (timestamp, version)}`` as a ``<stamps>`` holder."""
    holder = Element("stamps")
    for path, (timestamp, version) in sorted(
            stamps.items(), key=lambda entry: repr(entry[0])):
        item = Element("stamp", attrib={
            "ts": repr(float(timestamp)),
            "v": str(int(version)),
        })
        item.append(_encode_id_path(path))
        holder.append(item)
    return holder


def _decode_stamps(holder):
    stamps = {}
    if holder is None:
        return stamps
    for item in holder.element_children("stamp"):
        path = _decode_id_path(item.child("path"))
        stamps[path] = (float(item.get("ts") or 0.0),
                        int(item.get("v") or 0))
    return stamps


class ReplicateMessage(Message):
    """An owner's fire-and-forget replication batch to one replica peer.

    Carries the wire fragment (C1/C2, root-rooted -- the same shape as
    any generalized answer) for the replicated nodes plus per-path
    *stamps*: ``(data timestamp, database subtree version)``.  The
    version lets a replica drop reordered stale batches; the timestamp
    is what failover later judges against a query's freshness bound.
    Loss is tolerated by design -- the next update re-replicates.
    """

    kind = "replicate"

    def __init__(self, owner, fragment, stamps, sender=None,
                 message_id=None):
        super().__init__(sender=sender, message_id=message_id)
        self.owner = owner
        self.fragment = fragment
        self.stamps = {
            tuple(tuple(entry) for entry in path):
                (float(timestamp), int(version))
            for path, (timestamp, version) in dict(stamps).items()
        }

    def _fill(self, envelope):
        envelope.set("owner", str(self.owner))
        envelope.append(_encode_stamps(self.stamps))
        holder = Element("fragment")
        holder.append(self.fragment.copy())
        envelope.append(holder)

    @classmethod
    def _parse(cls, envelope):
        children = list(envelope.child("fragment").element_children())
        return cls(
            owner=envelope.get("owner"),
            fragment=children[0].copy() if children else None,
            stamps=_decode_stamps(envelope.child("stamps")),
            sender=envelope.get("sender"),
            message_id=int(envelope.get("id")),
        )

    def __repr__(self):
        return (f"ReplicateMessage(id={self.message_id}, "
                f"owner={self.owner!r}, stamps={len(self.stamps)}, "
                f"sender={self.sender!r}{self._repr_size()})")


class RehydrateRequest(Message):
    """"Send me your replica of *owner*'s data" (failover + recovery).

    With *id_paths* only those regions are wanted (an asker failing a
    subquery group over to a replica); without, the whole per-owner
    copy ships (a restarted owner rebuilding its fragment from peers).
    """

    kind = "rehydrate"

    def __init__(self, owner, id_paths=(), sender=None, message_id=None):
        super().__init__(sender=sender, message_id=message_id)
        self.owner = owner
        self.id_paths = [tuple(tuple(entry) for entry in path)
                         for path in id_paths]

    def _fill(self, envelope):
        envelope.set("owner", str(self.owner))
        paths = Element("paths")
        for path in self.id_paths:
            paths.append(_encode_id_path(path))
        envelope.append(paths)

    @classmethod
    def _parse(cls, envelope):
        paths_holder = envelope.child("paths")
        paths = [
            _decode_id_path(p)
            for p in paths_holder.element_children("path")
        ] if paths_holder is not None else []
        return cls(
            owner=envelope.get("owner"),
            id_paths=paths,
            sender=envelope.get("sender"),
            message_id=int(envelope.get("id")),
        )

    def __repr__(self):
        scope = len(self.id_paths) or "all"
        return (f"RehydrateRequest(id={self.message_id}, "
                f"owner={self.owner!r}, regions={scope}, "
                f"sender={self.sender!r}{self._repr_size()})")


class RehydrateAnswer(Message):
    """The reply to a :class:`RehydrateRequest`.

    ``fragment`` is ``None`` when the replier holds no replica of the
    owner (or none of the requested regions); ``stamps`` cover every
    path in the fragment so the asker can judge freshness itself.
    Carries ``replyTo`` like every reply kind.
    """

    kind = "rehydrate-answer"

    def __init__(self, in_reply_to, owner, fragment=None, stamps=None,
                 sender=None, message_id=None):
        super().__init__(sender=sender, message_id=message_id)
        self.in_reply_to = int(in_reply_to)
        self.owner = owner
        self.fragment = fragment
        self.stamps = {
            tuple(tuple(entry) for entry in path):
                (float(timestamp), int(version))
            for path, (timestamp, version) in dict(stamps or {}).items()
        }

    def _fill(self, envelope):
        envelope.set("replyTo", str(self.in_reply_to))
        envelope.set("owner", str(self.owner))
        if self.stamps:
            envelope.append(_encode_stamps(self.stamps))
        if self.fragment is not None:
            holder = Element("fragment")
            holder.append(self.fragment.copy())
            envelope.append(holder)

    @classmethod
    def _parse(cls, envelope):
        fragment = None
        holder = envelope.child("fragment")
        if holder is not None:
            children = list(holder.element_children())
            fragment = children[0].copy() if children else None
        return cls(
            in_reply_to=int(envelope.get("replyTo")),
            owner=envelope.get("owner"),
            fragment=fragment,
            stamps=_decode_stamps(envelope.child("stamps")),
            sender=envelope.get("sender"),
            message_id=int(envelope.get("id")),
        )

    def __repr__(self):
        payload = ("empty" if self.fragment is None
                   else f"fragment=<{self.fragment.tag}>")
        return (f"RehydrateAnswer(id={self.message_id}, "
                f"replyTo={self.in_reply_to}, owner={self.owner!r}, "
                f"{payload}, stamps={len(self.stamps)}, "
                f"sender={self.sender!r}{self._repr_size()})")


class PartialAggregateRequest(Message):
    """"Roll up *query* under *region* and send me the merge-state."

    The hierarchical-aggregation ask: instead of gathering a frontier's
    whole subtree, its owner is asked for the (count, sum, min, max)
    partial of the matches under *region* -- tuples on the wire, never
    data.  ``query`` is the inner location path (freshness tolerances
    already bucket-loosened by the asker); ``bound`` is that loosened
    freshness bound in seconds (absent for an unbounded ask, which the
    owner must recompute); ``now`` pins the evaluation clock so
    consistency predicates filter identically at every level.

    Only sent while ``OAConfig.aggregation`` is enabled -- a disabled
    build never emits or answers one (wire parity).
    """

    kind = "partial-agg"

    def __init__(self, region, query, bound=None, now=None, sender=None,
                 message_id=None):
        super().__init__(sender=sender, message_id=message_id)
        self.region = tuple(tuple(entry) for entry in region)
        self.query = query
        self.bound = float(bound) if bound is not None else None
        self.now = float(now) if now is not None else None

    def _fill(self, envelope):
        envelope.set("q", self.query)
        if self.bound is not None:
            envelope.set("bound", repr(self.bound))
        if self.now is not None:
            envelope.set("now", repr(self.now))
        envelope.append(_encode_id_path(self.region))

    @classmethod
    def _parse(cls, envelope):
        bound = envelope.get("bound")
        now = envelope.get("now")
        return cls(
            region=_decode_id_path(envelope.child("path")),
            query=envelope.get("q"),
            bound=float(bound) if bound is not None else None,
            now=float(now) if now is not None else None,
            sender=envelope.get("sender"),
            message_id=int(envelope.get("id")),
        )

    def __repr__(self):
        bound = "none" if self.bound is None else f"{self.bound:g}s"
        return (f"PartialAggregateRequest(id={self.message_id}, "
                f"region={self.region}, bound={bound}, "
                f"sender={self.sender!r}{self._repr_size()})")


class PartialAggregateAnswer(Message):
    """The reply to a :class:`PartialAggregateRequest`.

    ``state`` is a merge-state -- ``{region id_path: (Partial,
    data_ts)}`` -- normally collapsed to a single entry keyed by the
    asked region.  Each entry ships the partial's exact encoding (see
    :meth:`repro.agg.partial.Partial.to_attrs`: integer count, the
    rational sum as ``num``/``den``, NaN/infinity flags, finite
    extrema) plus its data timestamp, so any merge order at the asker
    reproduces the same aggregate.  Carries ``replyTo`` like every
    reply kind.
    """

    kind = "partial-agg-answer"

    def __init__(self, in_reply_to, state, sender=None, message_id=None):
        super().__init__(sender=sender, message_id=message_id)
        self.in_reply_to = int(in_reply_to)
        self.state = {
            tuple(tuple(entry) for entry in region): (partial, float(ts))
            for region, (partial, ts) in dict(state or {}).items()
        }

    def _fill(self, envelope):
        envelope.set("replyTo", str(self.in_reply_to))
        holder = Element("state")
        for region in sorted(self.state, key=repr):
            partial, data_ts = self.state[region]
            part = Element("part", attrib=partial.to_attrs())
            part.set("ts", repr(float(data_ts)))
            part.append(_encode_id_path(region))
            holder.append(part)
        envelope.append(holder)

    @classmethod
    def _parse(cls, envelope):
        # Lazy: repro.agg imports repro.net for these very messages, so
        # a module-level import here would make package order matter.
        from repro.agg.partial import Partial

        state = {}
        holder = envelope.child("state")
        if holder is not None:
            for part in holder.element_children("part"):
                region = _decode_id_path(part.child("path"))
                state[region] = (Partial.from_attrs(part.attrib),
                                 float(part.get("ts")))
        return cls(
            in_reply_to=int(envelope.get("replyTo")),
            state=state,
            sender=envelope.get("sender"),
            message_id=int(envelope.get("id")),
        )

    def __repr__(self):
        return (f"PartialAggregateAnswer(id={self.message_id}, "
                f"replyTo={self.in_reply_to}, entries={len(self.state)}, "
                f"sender={self.sender!r}{self._repr_size()})")


def clean_results(results):
    """Strip system attributes from a result list (defensive copy)."""
    cleaned = []
    for result in results:
        if isinstance(result, Element):
            cleaned.append(strip_internal_attributes(result.copy()))
        else:
            cleaned.append(result)
    return cleaned


_KINDS = {
    cls.kind: cls
    for cls in (QueryMessage, AnswerMessage, BatchQueryMessage,
                BatchAnswerMessage, ErrorMessage, UpdateMessage,
                AckMessage, AdoptMessage, MigrateReleaseMessage,
                ReplicaRetireMessage, ReplicateMessage,
                RehydrateRequest, RehydrateAnswer,
                PartialAggregateRequest, PartialAggregateAnswer)
}

"""The replication wire kinds: replicate, retire, rehydrate.

Registered with :func:`repro.net.messages.register_kind` on import, so
only a process that loads :mod:`repro.replication` can decode them; an
agent that does not run the subsystem refuses them like any kind it has
no handler for.
"""

from repro.net.messages import (
    Message,
    as_id_path,
    as_id_paths,
    decode_fragment,
    decode_id_path,
    decode_id_paths,
    encode_fragment,
    encode_id_path,
    encode_id_paths,
    register_kind,
)
from repro.xmlkit.nodes import Element


def _as_stamps(stamps):
    return {
        as_id_path(path): (float(timestamp), int(version))
        for path, (timestamp, version) in dict(stamps or {}).items()
    }


def _encode_stamps(stamps):
    """``{id_path: (timestamp, version)}`` as a ``<stamps>`` holder."""
    holder = Element("stamps")
    for path, (timestamp, version) in sorted(
            stamps.items(), key=lambda entry: repr(entry[0])):
        item = Element("stamp", attrib={
            "ts": repr(float(timestamp)),
            "v": str(int(version)),
        })
        item.append(encode_id_path(path))
        holder.append(item)
    return holder


def _decode_stamps(holder):
    stamps = {}
    if holder is None:
        return stamps
    for item in holder.element_children("stamp"):
        path = decode_id_path(item.child("path"))
        stamps[path] = (float(item.get("ts") or 0.0),
                        int(item.get("v") or 0))
    return stamps


@register_kind
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
        self.id_paths = as_id_paths(id_paths)

    def _fill(self, envelope):
        envelope.set("owner", self.owner)
        envelope.append(encode_id_paths(self.id_paths))

    @staticmethod
    def _parse(envelope):
        return {"owner": envelope.get("owner"),
                "id_paths": decode_id_paths(envelope)}


@register_kind
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
        self.stamps = _as_stamps(stamps)

    def _fill(self, envelope):
        envelope.set("owner", str(self.owner))
        envelope.append(_encode_stamps(self.stamps))
        envelope.append(encode_fragment(self.fragment))

    @staticmethod
    def _parse(envelope):
        return {"owner": envelope.get("owner"),
                "fragment": decode_fragment(envelope),
                "stamps": _decode_stamps(envelope.child("stamps"))}


@register_kind
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
        self.id_paths = as_id_paths(id_paths)

    def _fill(self, envelope):
        envelope.set("owner", str(self.owner))
        envelope.append(encode_id_paths(self.id_paths))

    @staticmethod
    def _parse(envelope):
        return {"owner": envelope.get("owner"),
                "id_paths": decode_id_paths(envelope)}


@register_kind
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
        self.stamps = _as_stamps(stamps)

    def _fill(self, envelope):
        envelope.set("replyTo", str(self.in_reply_to))
        envelope.set("owner", str(self.owner))
        if self.stamps:
            envelope.append(_encode_stamps(self.stamps))
        if self.fragment is not None:
            envelope.append(encode_fragment(self.fragment))

    @staticmethod
    def _parse(envelope):
        return {"in_reply_to": int(envelope.get("replyTo")),
                "owner": envelope.get("owner"),
                "fragment": decode_fragment(envelope),
                "stamps": _decode_stamps(envelope.child("stamps"))}

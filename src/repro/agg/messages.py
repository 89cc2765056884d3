"""The aggregation wire kinds: partial-aggregate ask and answer.

Registered with :func:`repro.net.messages.register_kind` on import, so
only a process that loads :mod:`repro.agg` can decode them; an agent
that does not run the subsystem refuses them like any kind it has no
handler for.
"""

from repro.agg.partial import Partial
from repro.net.messages import (
    Message,
    as_id_path,
    decode_id_path,
    encode_id_path,
    register_kind,
)
from repro.xmlkit.nodes import Element


@register_kind
class PartialAggregateRequest(Message):
    """"Roll up *query* under *region* and send me the merge-state."

    The hierarchical-aggregation ask: instead of gathering a frontier's
    whole subtree, its owner is asked for the (count, sum, min, max)
    partial of the matches under *region* -- tuples on the wire, never
    data.  ``query`` is the inner location path, canonical, with the
    caller's own bounds; ``bound`` is the tightest of them in seconds (absent for an
    unbounded ask, which the owner must recompute): the owner serves a
    summary only if its data was current at ``now - bound``.  ``now``
    pins the clock every level judges freshness by.
    """

    kind = "partial-agg"

    def __init__(self, region, query, bound=None, now=None, sender=None,
                 message_id=None):
        super().__init__(sender=sender, message_id=message_id)
        self.region = as_id_path(region)
        self.query = query
        self.bound = float(bound) if bound is not None else None
        self.now = float(now) if now is not None else None

    def _fill(self, envelope):
        envelope.set("q", self.query)
        if self.bound is not None:
            envelope.set("bound", repr(self.bound))
        if self.now is not None:
            envelope.set("now", repr(self.now))
        envelope.append(encode_id_path(self.region))

    @staticmethod
    def _parse(envelope):
        bound = envelope.get("bound")
        now = envelope.get("now")
        return {
            "region": decode_id_path(envelope.child("path")),
            "query": envelope.get("q"),
            "bound": float(bound) if bound is not None else None,
            "now": float(now) if now is not None else None,
        }


@register_kind
class PartialAggregateAnswer(Message):
    """The reply to a :class:`PartialAggregateRequest`.

    ``state`` is a merge-state -- ``{region id_path: (Partial,
    as_of)}`` -- normally collapsed to a single entry keyed by the
    asked region.  Each entry ships the partial's exact encoding (see
    :meth:`repro.agg.partial.Partial.to_attrs`: integer count, the
    rational sum as ``num``/``den``, NaN/infinity flags, finite
    extrema) plus its as-of time ``ts`` (the earliest time all its data
    was known current), so any merge order at the asker reproduces the
    same aggregate.  Carries ``replyTo`` like every reply kind.
    """

    kind = "partial-agg-answer"

    def __init__(self, in_reply_to, state, sender=None, message_id=None):
        super().__init__(sender=sender, message_id=message_id)
        self.in_reply_to = int(in_reply_to)
        self.state = {
            as_id_path(region): (partial, float(ts))
            for region, (partial, ts) in dict(state or {}).items()
        }

    def _fill(self, envelope):
        envelope.set("replyTo", str(self.in_reply_to))
        holder = Element("state")
        for region in sorted(self.state, key=repr):
            partial, as_of = self.state[region]
            part = Element("part", attrib=partial.to_attrs())
            part.set("ts", repr(float(as_of)))
            part.append(encode_id_path(region))
            holder.append(part)
        envelope.append(holder)

    @staticmethod
    def _parse(envelope):
        state = {}
        holder = envelope.child("state")
        if holder is not None:
            for part in holder.element_children("part"):
                region = decode_id_path(part.child("path"))
                state[region] = (Partial.from_attrs(part.attrib),
                                 float(part.get("ts")))
        return {"in_reply_to": int(envelope.get("replyTo")),
                "state": state}

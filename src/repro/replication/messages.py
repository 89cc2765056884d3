"""The replication wire kind: an owner's push to a ring peer.

Registered with :func:`repro.net.messages.register_kind` on import, so
only a process that loads :mod:`repro.replication` can decode it; an
agent that does not run the subsystem refuses it like any kind it has
no handler for.  Failover and restart ask with the agent's own
``query`` / ``batch-query`` kinds, flagged ``no_forward``.
"""

from repro.net.messages import (
    Message,
    decode_fragment,
    encode_fragment,
    register_kind,
)


@register_kind
class ReplicateMessage(Message):
    """An owner's fire-and-forget push of its data to one ring peer.

    Carries a wire fragment (C1/C2, root-rooted -- the same shape as any
    generalized answer) of the owner's local information, which the peer
    merges into its own fragment as cached ``complete`` data.  The
    merge's newer-timestamp rule drops a reordered older push; loss is
    tolerated by design -- the next update pushes again.
    """

    kind = "replicate"

    def __init__(self, fragment, sender=None, message_id=None):
        super().__init__(sender=sender, message_id=message_id)
        self.fragment = fragment

    def _fill(self, envelope):
        envelope.append(encode_fragment(self.fragment))

    @staticmethod
    def _parse(envelope):
        return {"fragment": decode_fragment(envelope)}

"""Per-node storage status, as defined in Section 3.2 of the paper.

Every IDable node in a site database carries a ``status`` attribute
summarizing what the site stores for it:

``owned``
    The site owns the node: it has the node's local information and at
    least the local ID information of every ancestor (I1 + I2).
``complete``
    Same stored information as ``owned``, but the node is owned
    elsewhere (i.e. this is a cached copy).
``id-complete``
    The site has the node's local ID information (its ID and the IDs
    of its IDable children) but not its full local information.
``incomplete``
    The site has only the node's ID.

Non-IDable nodes implicitly share the status of their lowest IDable
ancestor.
"""

import enum

from repro.core.errors import CoreError
from repro.xmlkit.nodes import Element, Text

STATUS_ATTRIBUTE = "status"
TIMESTAMP_ATTRIBUTE = "timestamp"

#: Attributes managed by the system, stripped from user-visible answers.
#: Timestamps are deliberately *not* internal: queries may predicate on
#: them (query-based consistency).
INTERNAL_ATTRIBUTES = frozenset({STATUS_ATTRIBUTE})


def clean_copy(node):
    """A detached copy of *node*'s subtree without internal attributes.

    What a user gets back: it carries no serialization memo and no
    origin link, so nothing done to it reaches the site database.
    """
    if isinstance(node, Text):
        return Text(node.value)
    clone = Element(node.tag, {name: value
                               for name, value in node.attrib.items()
                               if name not in INTERNAL_ATTRIBUTES})
    for child in node.children:
        clone.append(clean_copy(child))
    return clone


#: Information ordering: owned > complete > id-complete > incomplete.
_RANKS = {"owned": 3, "complete": 2, "id-complete": 1, "incomplete": 0}


class Status(enum.Enum):
    """Storage status of an IDable node at a site.

    Each member carries three plain attributes, fixed when the class is
    created (the answer path reads them once per included node):

    ``rank``
        the information ordering above;
    ``has_local_information``
        whether the full local information of the node is stored;
    ``has_id_information``
        whether at least the local ID information is stored.
    """

    OWNED = "owned"
    COMPLETE = "complete"
    ID_COMPLETE = "id-complete"
    INCOMPLETE = "incomplete"

    def __init__(self, value):
        self.rank = _RANKS[value]
        self.has_local_information = value in ("owned", "complete")
        self.has_id_information = value != "incomplete"


_BY_VALUE = {status.value: status for status in Status}


def parse_status(value):
    """Parse a status attribute value, raising on junk."""
    try:
        return _BY_VALUE[value]
    except (KeyError, TypeError):  # TypeError: an unhashable value
        raise CoreError(
            f"invalid status attribute value: {value!r}") from None


def get_status(element, default=Status.INCOMPLETE):
    """The status recorded on *element* (not climbing to ancestors)."""
    raw = element.get(STATUS_ATTRIBUTE)
    if raw is None:
        return default
    return parse_status(raw)


def set_status(element, status):
    """Record *status* on *element*."""
    element.set(STATUS_ATTRIBUTE, status.value)


def get_timestamp(element):
    """The node's data timestamp (seconds), or ``None``."""
    raw = element.get(TIMESTAMP_ATTRIBUTE)
    if raw is None:
        return None
    return float(raw)


def set_timestamp(element, when):
    """Record the data timestamp on *element*."""
    element.set(TIMESTAMP_ATTRIBUTE, repr(float(when)))

"""Golden wire bytes: one representative message of each of the 6 kinds.

``GOLDEN`` was generated at the commit *before* the subsystem seam (the
last one where every class lived in ``repro/net/messages.py``), from
exactly the instances :func:`instances` builds.  The envelope codec may
be reorganised freely; these bytes may not move.  ``replicate`` is the
exception: its bytes are those of a push that carries only a fragment.
It is a core kind (a migration's push, and read replication's); the
migration kinds ``adopt`` and ``migrate-release`` are gone, and so are
the batch kinds and the rollup's own ask and answer: a ``query`` of
several items, or of a rollup's fold items, is the one ask, and its
``answer`` holds one reply per item (:data:`ITEMS_GOLDEN`).
"""

import pytest

from repro.agg import Partial
from repro.net import messages as m
from repro.xmlkit import Text, parse_fragment, serialize

FRAGMENT = (
    "<usRegion id='NE' status='id-complete'><state id='PA' status='owned' "
    "timestamp='12.5'><population>12</population></state></usRegion>")
PATH = (("usRegion", "NE"), ("state", "PA"))
QUERY = "/usRegion[@id='NE']/state[@id='PA']"
REPORT = {
    "complete": False,
    "unreachable": [{
        "id_path": [list(entry) for entry in PATH], "query": QUERY,
        "scalar": False, "attempts": 3,
        "causes": ["site 'oak': UnknownSite: gone"]}],
    "served_by_replica": [{
        "id_path": [list(entry) for entry in PATH],
        "query": "/usRegion[@id='NE']",
        "replica": "shady", "owner": "oak", "age": 1.5}],
    "replica_too_stale": [],
}


def _partial():
    partial = Partial()
    for value in (1.5, 2.25, float("nan")):
        partial.add(value)
    return partial


def instances():
    def fragment():
        return parse_fragment(FRAGMENT)

    return [
        m.QueryMessage(QUERY, now=100.25, scalar=True, user=False,
                       sender="top", message_id=41),
        m.AnswerMessage(41, fragment=fragment(), completeness=REPORT,
                        sender="oak", message_id=42),
        m.ErrorMessage(43, code="handler-error", detail="KeyError: 'x'",
                       retryable=False, sender="oak", message_id=45),
        m.UpdateMessage(PATH, attributes={"zip": "15213"},
                        values={"population": "13", "available": "yes"},
                        sender="sa-1", message_id=46),
        m.AckMessage(46, ok=False, detail="nope", sender="oak",
                     message_id=47),
        m.ReplicateMessage(fragment(), sender="oak", message_id=51),
    ]


GOLDEN = {
    "query": (
        '<message kind="query" id="41" sender="top" now="100.25" '
        'scalar="1" '
        'user="0"><q>/usRegion[@id=\'NE\']/state[@id=\'PA\']</q></message>'
    ),
    "answer": (
        '<message kind="answer" id="42" sender="oak" '
        'replyTo="41"><completeness complete="0"><miss '
        'section="unreachable" attempts="3" scalar="0"><path><entry '
        'tag="usRegion" id="NE"/><entry tag="state" id="PA"/></path><q>/u'
        "sRegion[@id='NE']/state[@id='PA']</q><cause>site 'oak': "
        'UnknownSite: gone</cause></miss><replica site="shady" '
        'owner="oak" age="1.5"><path><entry tag="usRegion" '
        'id="NE"/><entry tag="state" id="PA"/></path><q>/usRegion[@id=\'NE'
        '\']</q></replica></completeness><fragment><usRegion id="NE" '
        'status="id-complete"><state id="PA" status="owned" timestamp="12'
        '.5"><population>12</population></state></usRegion></fragment></m'
        'essage>'
    ),
    "error": (
        '<message kind="error" id="45" sender="oak" replyTo="43" '
        'code="handler-error" retryable="0"><detail>KeyError: '
        "'x'</detail></message>"
    ),
    "update": (
        '<message kind="update" id="46" sender="sa-1"><path><entry '
        'tag="usRegion" id="NE"/><entry tag="state" '
        'id="PA"/></path><attrs><a name="zip" '
        'value="15213"/></attrs><values><v name="population">13</v><v '
        'name="available">yes</v></values></message>'
    ),
    "ack": (
        '<message kind="ack" id="47" sender="oak" replyTo="46" '
        'ok="0"><detail>nope</detail></message>'
    ),
    "replicate": (
        '<message kind="replicate" id="51" sender="oak"><fragment><usRegion '
        'id="NE" status="id-complete"><state id="PA" status="owned" times'
        'tamp="12.5"><population>12</population></state></usRegion></frag'
        'ment></message>'
    ),
}


def _comparable(value):
    """Message fields as plain comparable data (elements by their
    serialization, partials by their exact wire attributes)."""
    if hasattr(value, "tag"):
        return serialize(value, use_cache=False)
    if isinstance(value, Partial):
        return value.to_attrs()
    if isinstance(value, dict):
        return {key: _comparable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_comparable(item) for item in value]
    return value


def _fields(message):
    return {name: _comparable(value)
            for name, value in vars(message).items()
            if name != "_encoded"}


def test_every_kind_is_covered():
    assert len(GOLDEN) == 6
    assert {message.kind for message in instances()} == set(m._KINDS) \
        == set(GOLDEN)


@pytest.mark.parametrize("message", instances(),
                         ids=lambda message: message.kind)
def test_encoding_matches_the_pre_seam_bytes(message):
    assert message.encode() == GOLDEN[message.kind]


@pytest.mark.parametrize("message", instances(),
                         ids=lambda message: message.kind)
def test_decode_round_trips(message):
    decoded = m.Message.decode(message.encode())
    assert type(decoded) is type(message)
    assert _fields(decoded) == _fields(message)
    # A decoded message keeps the bytes it arrived as; drop them so the
    # comparison is between two real encodings.
    decoded.invalidate_encoding()
    assert decoded.encode() == message.encode()


#: ``<results>`` answers: element-only results are the bytes the
#: pre-PR-17 encoder produced (no attribute on the holder); a text
#: result ships as ``<t v=.../>`` at a position the holder lists.
RESULTS_GOLDEN = [
    (lambda: [parse_fragment("<available>yes</available>"),
              parse_fragment("<parkingSpace id='2'><price>25</price>"
                             "</parkingSpace>")],
     '<message kind="answer" id="56" sender="oak" replyTo="41"><results>'
     '<available>yes</available><parkingSpace id="2"><price>25</price>'
     '</parkingSpace></results></message>'),
    (lambda: [],
     '<message kind="answer" id="56" sender="oak" replyTo="41"><results/>'
     '</message>'),
    (lambda: [Text("yes"), parse_fragment("<t v='x'/>"),
              Text(" a<b&\"c' "), Text("")],
     '<message kind="answer" id="56" sender="oak" replyTo="41">'
     '<results text="0 2 3"><t v="yes"/><t v="x"/>'
     '<t v=" a&lt;b&amp;&quot;c\' "/><t v=""/></results></message>'),
]


@pytest.mark.parametrize("build, expected", RESULTS_GOLDEN,
                         ids=["elements", "empty", "text"])
def test_results_round_trip_one_for_one_and_in_order(build, expected):
    message = m.AnswerMessage(41, results=build(), sender="oak",
                              message_id=56)
    assert message.encode() == expected
    decoded = m.Message.decode(expected)
    assert [type(result) for result in decoded.results] == \
        [type(result) for result in build()]
    assert _fields(decoded) == _fields(message)
    decoded.invalidate_encoding()
    assert decoded.encode() == expected


#: Read failover's ask and its answers: ``noforward`` and ``left`` are
#: encoded only when set, so every other envelope keeps its bytes.
FAILOVER_GOLDEN = [
    (lambda: m.QueryMessage(QUERY, now=100.25, no_forward=True,
                            sender="top", message_id=57),
     '<message kind="query" id="57" sender="top" now="100.25" scalar="0" '
     'user="0" noforward="1"><q>/usRegion[@id=\'NE\']/state[@id=\'PA\']'
     '</q></message>'),
    (lambda: m.QueryMessage([QUERY, "/usRegion"], now=7.0, no_forward=True,
                            sender="top", message_id=58),
     '<message kind="query" id="58" sender="top" now="7.0" scalar="0" '
     'user="0" noforward="1"><q>/usRegion[@id=\'NE\']/state[@id=\'PA\']'
     '</q><q>/usRegion</q></message>'),
    (lambda: m.AnswerMessage(57, left=("id-complete", "stale-cache"),
                             sender="shady", message_id=59),
     '<message kind="answer" id="59" sender="shady" replyTo="57" '
     'left="id-complete stale-cache"/>'),
    (lambda: m.AnswerMessage(58, answers=[
        m.ItemAnswer("fragment", None),
        m.ItemAnswer("fragment", None, ("stale-cache",))],
        sender="shady", message_id=60),
     '<message kind="answer" id="60" sender="shady" replyTo="58">'
     '<fragment/><fragment left="stale-cache"/></message>'),
]


@pytest.mark.parametrize("build, expected", FAILOVER_GOLDEN,
                         ids=["query", "multi-query", "answer",
                              "multi-answer"])
def test_failover_fields_round_trip(build, expected):
    message = build()
    assert message.encode() == expected
    decoded = m.Message.decode(expected)
    assert _fields(decoded) == _fields(message)


def _fragment():
    return parse_fragment(FRAGMENT)


#: Several items in one ``query``, and a rollup's fold items: each item
#: is a ``<q>``, a fold item's carrying its fold's last step (``"."``:
#: the match itself) and its bound; the ``answer`` holds one holder per
#: item, in order, a fold item's partial in a ``<state>``.
ITEMS_GOLDEN = [
    (lambda: m.QueryMessage([QUERY, "/usRegion[@id='NE']"], now=7.0,
                            sender="top", message_id=43),
     '<message kind="query" id="43" sender="top" now="7.0" scalar="0" '
     'user="0"><q>/usRegion[@id=\'NE\']/state[@id=\'PA\']</q>'
     '<q>/usRegion[@id=\'NE\']</q></message>'),
    (lambda: m.AnswerMessage(43, answers=[
        m.ItemAnswer("fragment", _fragment()), m.ItemAnswer("fragment", None)],
        sender="oak", message_id=44),
     '<message kind="answer" id="44" sender="oak" replyTo="43"><fragment>'
     '<usRegion id="NE" status="id-complete"><state id="PA" status="owned" '
     'timestamp="12.5"><population>12</population></state></usRegion>'
     '</fragment><fragment/></message>'),
    (lambda: m.QueryMessage([
        m.Ask("/usRegion[@id='NE']/state/population", ".", 30.0),
        m.Ask("/usRegion[@id='NE']/state", "@zip"), QUERY],
        now=100.0, sender="top", message_id=54),
     '<message kind="query" id="54" sender="top" now="100.0" scalar="0" '
     'user="0"><q fold="." bound="30.0">/usRegion[@id=\'NE\']/state'
     '/population</q><q fold="@zip">/usRegion[@id=\'NE\']/state</q>'
     '<q>/usRegion[@id=\'NE\']/state[@id=\'PA\']</q></message>'),
    (lambda: m.AnswerMessage(54, answers=[
        m.ItemAnswer("state", {PATH: (_partial(), 12.5)})],
        sender="oak", message_id=55),
     '<message kind="answer" id="55" sender="oak" replyTo="54"><state>'
     '<part count="3" num="15" den="4" nan="1" lo="1.5" hi="2.25" '
     'ts="12.5"><path><entry tag="usRegion" id="NE"/><entry tag="state" '
     'id="PA"/></path></part></state></message>'),
    (lambda: m.AnswerMessage(54, answers=[
        m.ItemAnswer("state", {PATH: (_partial(), 12.5)}),
        m.ItemAnswer("fragment", None), m.ItemAnswer("fragment", _fragment())],
        sender="oak", message_id=55),
     '<message kind="answer" id="55" sender="oak" replyTo="54"><state>'
     '<part count="3" num="15" den="4" nan="1" lo="1.5" hi="2.25" '
     'ts="12.5"><path><entry tag="usRegion" id="NE"/><entry tag="state" '
     'id="PA"/></path></part></state><fragment/><fragment><usRegion '
     'id="NE" status="id-complete"><state id="PA" status="owned" '
     'timestamp="12.5"><population>12</population></state></usRegion>'
     '</fragment></message>'),
]


@pytest.mark.parametrize("build, expected", ITEMS_GOLDEN,
                         ids=["items-query", "items-answer", "fold-query",
                              "fold-answer", "fold-answers"])
def test_items_round_trip_in_order(build, expected):
    message = build()
    assert message.encode() == expected
    decoded = m.Message.decode(expected)
    assert _fields(decoded) == _fields(message)
    decoded.invalidate_encoding()
    assert decoded.encode() == expected


def test_a_query_carries_at_least_one_ask_and_a_scalar_one():
    for items, scalar in (([], False), ([QUERY, QUERY], True)):
        with pytest.raises(ValueError):
            m.QueryMessage(items, scalar=scalar)
    with pytest.raises(m.MessageError):
        m.Message.decode('<message kind="query" id="1" scalar="0" '
                         'user="0"/>')

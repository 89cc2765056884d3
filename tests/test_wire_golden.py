"""Golden wire bytes: one representative message of each of the 15 kinds.

``GOLDEN`` was generated at the commit *before* the subsystem seam (the
last one where all 15 classes lived in ``repro/net/messages.py``), from
exactly the instances :func:`instances` builds.  The envelope codec may
be reorganised freely; these bytes may not move.

A subsystem's kinds are covered while its package exists (the
removability drill deletes ``src/repro/agg`` or ``src/repro/replication``
and expects the rest of this file to keep passing).
"""

import importlib

import pytest

from repro.net import messages as m
from repro.xmlkit import Text, parse_fragment, serialize


def _optional(module):
    try:
        return importlib.import_module(module)
    except ModuleNotFoundError:
        return None


agg = _optional("repro.agg")
replication = _optional("repro.replication")

FRAGMENT = (
    "<usRegion id='NE' status='id-complete'><state id='PA' status='owned' "
    "timestamp='12.5'><population>12</population></state></usRegion>")
PATH = (("usRegion", "NE"), ("state", "PA"))
PATHS = [PATH, PATH + (("county", "Allegheny"),)]
STAMPS = {PATH: (12.5, 7), PATHS[1]: (13.0, 8)}
QUERY = "/usRegion[@id='NE']/state[@id='PA']"
REPORT = {
    "complete": False,
    "unreachable": [{
        "id_path": [list(entry) for entry in PATH], "query": QUERY,
        "scalar": False, "attempts": 3,
        "causes": ["site 'oak': UnknownSite: gone"]}],
    "stale_served": [],
    "served_by_replica": [{
        "id_path": [list(entry) for entry in PATH],
        "query": "/usRegion[@id='NE']",
        "replica": "shady", "owner": "oak", "age": 1.5}],
    "replica_too_stale": [],
}


def _partial():
    partial = agg.Partial()
    for value in (1.5, 2.25, float("nan")):
        partial.add(value)
    return partial


def instances():
    def fragment():
        return parse_fragment(FRAGMENT)

    core = [
        m.QueryMessage(QUERY, now=100.25, scalar=True, user=False,
                       sender="top", message_id=41),
        m.AnswerMessage(41, fragment=fragment(), completeness=REPORT,
                        sender="oak", message_id=42),
        m.BatchQueryMessage(
            [("/usRegion[@id='NE']", False), ("count(/usRegion)", True)],
            now=7.0, sender="top", message_id=43),
        m.BatchAnswerMessage(
            43, [fragment(), ("scalar", 3.0), None, ("scalar", True)],
            sender="oak", message_id=44),
        m.ErrorMessage(43, code="handler-error", detail="KeyError: 'x'",
                       retryable=False, sender="oak", message_id=45),
        m.UpdateMessage(PATH, attributes={"zip": "15213"},
                        values={"population": "13", "available": "yes"},
                        sender="sa-1", message_id=46),
        m.AckMessage(46, ok=False, detail="nope", sender="oak",
                     message_id=47),
        m.AdoptMessage(PATHS, fragment(), sender="oak", message_id=48),
        m.MigrateReleaseMessage(PATHS, sender="oak", message_id=49),
    ]
    replicated = [] if replication is None else [
        replication.ReplicaRetireMessage("oak", PATHS, sender="oak",
                                         message_id=50),
        replication.ReplicateMessage("oak", fragment(), STAMPS,
                                     sender="oak", message_id=51),
        replication.RehydrateRequest("oak", PATHS, sender="top",
                                     message_id=52),
        replication.RehydrateAnswer(52, "oak", fragment=fragment(),
                                    stamps=STAMPS, sender="shady",
                                    message_id=53),
    ]
    aggregated = [] if agg is None else [
        agg.PartialAggregateRequest(
            PATH, "/usRegion[@id='NE']/state/population", bound=30.0,
            now=100.0, sender="top", message_id=54),
        agg.PartialAggregateAnswer(54, {PATH: (_partial(), 12.5)},
                                   sender="oak", message_id=55),
    ]
    return core + replicated + aggregated


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
    "batch-query": (
        '<message kind="batch-query" id="43" sender="top" now="7.0"><sub '
        'scalar="0">/usRegion[@id=\'NE\']</sub><sub '
        'scalar="1">count(/usRegion)</sub></message>'
    ),
    "batch-answer": (
        '<message kind="batch-answer" id="44" sender="oak" '
        'replyTo="43"><item><fragment><usRegion id="NE" '
        'status="id-complete"><state id="PA" status="owned" timestamp="12'
        '.5"><population>12</population></state></usRegion></fragment></i'
        'tem><item><scalar '
        'type="float">3.0</scalar></item><item/><item><scalar '
        'type="bool">true</scalar></item></message>'
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
    "adopt": (
        '<message kind="adopt" id="48" sender="oak"><paths><path><entry '
        'tag="usRegion" id="NE"/><entry tag="state" '
        'id="PA"/></path><path><entry tag="usRegion" id="NE"/><entry '
        'tag="state" id="PA"/><entry tag="county" '
        'id="Allegheny"/></path></paths><fragment><usRegion id="NE" '
        'status="id-complete"><state id="PA" status="owned" timestamp="12'
        '.5"><population>12</population></state></usRegion></fragment></m'
        'essage>'
    ),
    "migrate-release": (
        '<message kind="migrate-release" id="49" '
        'sender="oak"><paths><path><entry tag="usRegion" id="NE"/><entry '
        'tag="state" id="PA"/></path><path><entry tag="usRegion" '
        'id="NE"/><entry tag="state" id="PA"/><entry tag="county" '
        'id="Allegheny"/></path></paths></message>'
    ),
    "replica-retire": (
        '<message kind="replica-retire" id="50" sender="oak" '
        'owner="oak"><paths><path><entry tag="usRegion" id="NE"/><entry '
        'tag="state" id="PA"/></path><path><entry tag="usRegion" '
        'id="NE"/><entry tag="state" id="PA"/><entry tag="county" '
        'id="Allegheny"/></path></paths></message>'
    ),
    "replicate": (
        '<message kind="replicate" id="51" sender="oak" '
        'owner="oak"><stamps><stamp ts="12.5" v="7"><path><entry '
        'tag="usRegion" id="NE"/><entry tag="state" '
        'id="PA"/></path></stamp><stamp ts="13.0" v="8"><path><entry '
        'tag="usRegion" id="NE"/><entry tag="state" id="PA"/><entry '
        'tag="county" '
        'id="Allegheny"/></path></stamp></stamps><fragment><usRegion '
        'id="NE" status="id-complete"><state id="PA" status="owned" times'
        'tamp="12.5"><population>12</population></state></usRegion></frag'
        'ment></message>'
    ),
    "rehydrate": (
        '<message kind="rehydrate" id="52" sender="top" '
        'owner="oak"><paths><path><entry tag="usRegion" id="NE"/><entry '
        'tag="state" id="PA"/></path><path><entry tag="usRegion" '
        'id="NE"/><entry tag="state" id="PA"/><entry tag="county" '
        'id="Allegheny"/></path></paths></message>'
    ),
    "rehydrate-answer": (
        '<message kind="rehydrate-answer" id="53" sender="shady" '
        'replyTo="52" owner="oak"><stamps><stamp ts="12.5" '
        'v="7"><path><entry tag="usRegion" id="NE"/><entry tag="state" '
        'id="PA"/></path></stamp><stamp ts="13.0" v="8"><path><entry '
        'tag="usRegion" id="NE"/><entry tag="state" id="PA"/><entry '
        'tag="county" '
        'id="Allegheny"/></path></stamp></stamps><fragment><usRegion '
        'id="NE" status="id-complete"><state id="PA" status="owned" times'
        'tamp="12.5"><population>12</population></state></usRegion></frag'
        'ment></message>'
    ),
    "partial-agg": (
        '<message kind="partial-agg" id="54" sender="top" '
        'q="/usRegion[@id=\'NE\']/state/population" bound="30.0" '
        'now="100.0"><path><entry tag="usRegion" id="NE"/><entry '
        'tag="state" id="PA"/></path></message>'
    ),
    "partial-agg-answer": (
        '<message kind="partial-agg-answer" id="55" sender="oak" '
        'replyTo="54"><state><part count="3" num="15" den="4" nan="1" '
        'lo="1.5" hi="2.25" ts="12.5"><path><entry tag="usRegion" '
        'id="NE"/><entry tag="state" '
        'id="PA"/></path></part></state></message>'
    ),
}


def _comparable(value):
    """Message fields as plain comparable data (elements by their
    serialization, partials by their exact wire attributes)."""
    if hasattr(value, "tag"):
        return serialize(value, use_cache=False)
    if agg is not None and isinstance(value, agg.Partial):
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


def test_all_fifteen_kinds_are_covered():
    assert len(GOLDEN) == 15
    assert {message.kind for message in instances()} == set(m._KINDS)
    if agg is not None and replication is not None:
        assert set(m._KINDS) == set(GOLDEN)


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

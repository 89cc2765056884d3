"""Ownership rules of the wire path (PR 17).

A node crossing the wire is allocated once per side: ``encode``
serializes the envelope *around* payloads it only borrows, ``decode``
hands the parsed subtrees over by detaching them, and the gather
driver's merge adopts the nodes of a fragment nobody else holds.  The
properties pin what that must never change:

* the bytes -- against the copy-then-serialize payload codecs as of the
  commit before PR 17, kept here verbatim as the oracle (the PR 15
  differential pattern; nothing under ``src/`` imports them);
* the payload -- parent, version stamp and content survive ``encode``;
* isolation -- a mutated decoded fragment reaches neither the sender's
  bytes, nor its database, nor any serialization memo;
* the merge -- a handed-over fragment and a copied one build the same
  database, index and invariants included, and a journalled hand-over
  replays to it.
"""

import sys
import threading
from contextlib import contextmanager

from hypothesis import given, settings, strategies as st

from repro.core import SensorDatabase
from repro.core.invariants import validate_deployment
from repro.durability import apply_record, partition_fingerprint
from repro.net import messages as m
from repro.xmlkit import Element, Text, parse_fragment, serialize

from tests.test_wire_golden import GOLDEN, _fields, _optional, instances

replication_messages = _optional("repro.replication.messages")


# ----------------------------------------------------------------------
# The oracle: the payload codecs as of the commit before PR 17, verbatim
# (only the ``_old_`` prefixes are new).
# ----------------------------------------------------------------------
def _old_encode_fragment(fragment):
    holder = Element("fragment")
    holder.append(fragment.copy())
    return holder


def _old_decode_fragment(parent):
    holder = parent.child("fragment")
    if holder is None:
        return None
    children = list(holder.element_children())
    return children[0].copy() if children else None


def _old_encode_results(results):
    holder = Element("results")
    for result in results:
        if isinstance(result, Element):
            holder.append(result.copy())
        else:
            holder.append(Text(result.value))
    return holder


def _old_decode_results(results_holder):
    return [child.copy() for child in results_holder.element_children()]


@contextmanager
def _old_payload_codecs():
    """Run the envelope codec over the oracle's payload codecs."""
    modules = [m] + ([replication_messages] if replication_messages else [])
    old = {"encode_fragment": _old_encode_fragment,
           "decode_fragment": _old_decode_fragment,
           "_encode_results": _old_encode_results,
           "_decode_results": _old_decode_results}
    saved = [(module, name, getattr(module, name))
             for module in modules for name in old if hasattr(module, name)]
    for module, name, _current in saved:
        setattr(module, name, old[name])
    try:
        yield
    finally:
        for module, name, current in saved:
            setattr(module, name, current)


def _old_encode(message):
    with _old_payload_codecs():
        return serialize(message.to_element())


def _old_decode(text):
    with _old_payload_codecs():
        decoded = m.Message.decode(text)
    decoded.invalidate_encoding()
    return decoded


# ----------------------------------------------------------------------
# Strategies (bounded: a few nodes, a few characters)
# ----------------------------------------------------------------------
_TAGS = st.sampled_from(["a", "b", "block", "t", "fragment", "results"])
_VALUES = st.text(alphabet="ab <>&\"'\n1", max_size=6)
_ATTRIBUTES = st.dictionaries(
    st.sampled_from(["id", "status", "v", "text", "zip"]), _VALUES,
    max_size=3)


def _elements(children):
    return st.builds(
        lambda tag, attrib, kids, text: Element(
            tag, attrib=attrib, children=kids, text=text),
        _TAGS, _ATTRIBUTES, children, st.one_of(st.none(), _VALUES))


_TREES = st.recursive(
    _elements(st.just(())),
    lambda trees: _elements(st.lists(trees, max_size=3)), max_leaves=8)


def _message_builders():
    """One builder per fragment-carrying kind: tree(s) -> message."""
    builders = {
        "answer": lambda trees: m.AnswerMessage(
            7, fragment=trees[0], sender="oak", message_id=9),
        "batch-answer": lambda trees: m.BatchAnswerMessage(
            7, list(trees) + [("scalar", 2.5), None], sender="oak",
            message_id=9),
        "adopt": lambda trees: m.AdoptMessage(
            [(("a", "1"),)], trees[0], sender="oak", message_id=9),
        "results": lambda trees: m.AnswerMessage(
            7, results=list(trees), sender="oak", message_id=9),
    }
    if replication_messages is not None:
        stamps = {(("a", "1"),): (1.5, 3)}
        builders["replicate"] = \
            lambda trees: replication_messages.ReplicateMessage(
                "oak", trees[0], stamps, sender="oak", message_id=9)
        builders["rehydrate-answer"] = \
            lambda trees: replication_messages.RehydrateAnswer(
                7, "oak", fragment=trees[0], stamps=stamps, sender="shady",
                message_id=9)
    return builders


_BUILDERS = _message_builders()
_KINDS = st.sampled_from(sorted(_BUILDERS))
_PAYLOADS = st.lists(_TREES, min_size=1, max_size=3)


def _plain(tree):
    return serialize(tree, use_cache=False)


def _memo_is_transparent(tree):
    return serialize(tree) == _plain(tree)


def _element_payloads(message):
    """Every element *message* carries as a fragment, answer or result."""
    return [value for value in
            [getattr(message, "fragment", None)]
            + list(getattr(message, "answers", None) or ())
            + list(getattr(message, "results", None) or ())
            if isinstance(value, Element)]


def _scribble(tree):
    """Mutate every node of *tree* in every way a receiver might."""
    for node in list(tree.iter()):
        node.set("scribbled", "yes")
        node.delete_attribute("id")
        for child in list(node.children):
            if isinstance(child, Text):
                node.remove(child)
        node.append(Element("graffiti", text="x"))


# ----------------------------------------------------------------------
# Encode / decode
# ----------------------------------------------------------------------
class TestEncodeBorrowsThePayload:
    def test_every_kind_matches_the_old_encoder(self):
        messages = instances()
        assert {message.kind for message in messages} == set(m._KINDS)
        for message in messages:
            assert message.encode() == _old_encode(message) \
                == GOLDEN[message.kind]

    @given(_KINDS, _PAYLOADS)
    @settings(max_examples=120, deadline=None)
    def test_bytes_equal_the_copying_encoder(self, kind, trees):
        message = _BUILDERS[kind](trees)
        assert message.encode() == _old_encode(message)

    @given(_KINDS, _PAYLOADS, st.booleans())
    @settings(max_examples=120, deadline=None)
    def test_payload_is_untouched(self, kind, trees, attached):
        home = Element("home")
        if attached:
            home.extend(trees)
        before = [(tree.parent, tree.subtree_version, _plain(tree))
                  for tree in trees]
        home_version = home.subtree_version
        _BUILDERS[kind](trees).encode()
        assert [(tree.parent, tree.subtree_version, _plain(tree))
                for tree in trees] == before
        assert home.subtree_version == home_version
        assert all(_memo_is_transparent(tree) for tree in trees)

    def test_payload_is_untouched_when_encode_raises(self, monkeypatch):
        tree = parse_fragment("<a id='1'><b>x</b></a>")
        before = (tree.parent, tree.subtree_version, _plain(tree))

        def broken(_node):
            raise RuntimeError("disk full")

        monkeypatch.setattr(m, "serialize", broken)
        message = _BUILDERS["answer"]([tree])
        try:
            message.encode()
        except RuntimeError:
            pass
        assert (tree.parent, tree.subtree_version, _plain(tree)) == before
        monkeypatch.undo()
        assert message.encode() == _old_encode(message)

    def test_racing_encoders_return_the_same_bytes(self):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _round in range(20):
                tree = parse_fragment(
                    "<a id='1'>" + "<b><c>x</c></b>" * 40 + "</a>")
                message = _BUILDERS["answer"]([tree])
                expected = _old_encode(_BUILDERS["answer"]([tree.copy()]))
                seen = []
                threads = [
                    threading.Thread(
                        target=lambda: seen.append(message.encode()))
                    for _ in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                assert not any(thread.is_alive() for thread in threads)
                assert seen == [expected] * 4
                assert tree.parent is None and _memo_is_transparent(tree)
        finally:
            sys.setswitchinterval(interval)


class TestDecodeDetaches:
    @given(_KINDS, _PAYLOADS)
    @settings(max_examples=120, deadline=None)
    def test_decode_equals_the_copying_decoder(self, kind, trees):
        text = _BUILDERS[kind](trees).encode()
        decoded = m.Message.decode(text)
        assert decoded.encoded_size() == len(text)
        decoded.invalidate_encoding()
        assert _fields(decoded) == _fields(_old_decode(text))
        payloads = _element_payloads(decoded)
        assert len(payloads) == len(trees if kind in (
            "batch-answer", "results") else trees[:1])
        assert all(payload.parent is None for payload in payloads)

    @given(_KINDS, _PAYLOADS)
    @settings(max_examples=120, deadline=None)
    def test_mutating_a_decoded_fragment_stays_local(self, kind, sources):
        # The sender answers from its database by copy (AnswerBuilder),
        # so the payload's memo writes back to the database's nodes.
        database = Element("db", children=sources)
        payloads = [source.copy() for source in sources]
        message = _BUILDERS[kind](payloads)
        sent = message.encode()
        stored = _plain(database)
        shipped = [_plain(payload) for payload in payloads]

        decoded = m.Message.decode(sent)
        for payload in _element_payloads(decoded):
            _scribble(payload)

        assert message.encode() == sent
        message.invalidate_encoding()
        assert message.encode() == sent
        assert [_plain(payload) for payload in payloads] == shipped
        assert _plain(database) == stored
        assert _memo_is_transparent(database)
        assert all(_memo_is_transparent(payload) for payload in payloads)


# ----------------------------------------------------------------------
# Merge: hand-over against copy
# ----------------------------------------------------------------------
_ROOT = (("top", "R"),)
_MIDS = 3
_LEAVES = 2
_OWNED_MID = 0


def _mid_content(mid):
    """The non-IDable content of ``m<mid>`` in the reference document:
    nested elements, markup characters and a bare text node."""
    return [Element("v", text=f"value <{mid}> & \"more\""),
            Element("note", children=[Element("deep", text=str(mid)),
                                      Element("empty")]),
            Text(f"loose {mid}")]


def _reference_document():
    root = Element("top", attrib={"id": "R"})
    for mid in range(_MIDS):
        node = Element("mid", attrib={"id": f"m{mid}", "zip": f"z{mid}"},
                       children=_mid_content(mid))
        for leaf in range(_LEAVES):
            node.append(Element("leaf", attrib={"id": f"l{leaf}"},
                                children=[Element("v", text=f"{mid}.{leaf}")]))
        root.append(node)
    return root


def _build_database(journal=None):
    """The root's site: owns ``m0`` and its leaves, stubs for the rest."""
    root = Element("top", attrib={"id": "R", "status": "id-complete"})
    for mid in range(_MIDS):
        if mid == _OWNED_MID:
            node = Element("mid", attrib={
                "id": f"m{mid}", "zip": f"z{mid}", "status": "owned",
                "timestamp": "0.0"}, children=_mid_content(mid))
            for leaf in range(_LEAVES):
                node.append(Element("leaf", attrib={
                    "id": f"l{leaf}", "status": "owned",
                    "timestamp": "0.0"},
                    children=[Element("v", text=f"{mid}.{leaf}")]))
        else:
            node = Element("mid", attrib={
                "id": f"m{mid}", "status": "incomplete"})
        root.append(node)
    database = SensorDatabase(root, clock=lambda: 99.0, site_id="s0")
    database.journal = journal
    return database


_OWNER_MAP = dict(
    [(_ROOT + (("mid", f"m{_OWNED_MID}"),), "s0")]
    + [(_ROOT + (("mid", f"m{_OWNED_MID}"), ("leaf", f"l{leaf}")), "s0")
       for leaf in range(_LEAVES)])

#: One wire fragment: per mid, ``None`` (absent) or (status, timestamp,
#: per-leaf ``None`` = stub / timestamp = complete).
_MID_SPECS = st.one_of(
    st.none(),
    st.tuples(st.sampled_from(["complete", "id-complete", "incomplete"]),
              st.integers(1, 5),
              st.tuples(*[st.one_of(st.none(), st.integers(1, 5))
                          for _ in range(_LEAVES)])))
_FRAGMENT_SPECS = st.tuples(*[_MID_SPECS for _ in range(_MIDS)])


def _wire_fragment(spec):
    """A C1/C2 fragment (content from the reference document)."""
    root = Element("top", attrib={"id": "R", "status": "id-complete"})
    for mid in range(_MIDS):
        entry = spec[mid]
        if entry is None or entry[0] == "incomplete":
            root.append(Element("mid", attrib={
                "id": f"m{mid}", "status": "incomplete"}))
            continue
        status, timestamp, leaves = entry
        node = Element("mid", attrib={"id": f"m{mid}", "status": status})
        if status == "complete":
            node.set("zip", f"z{mid}")
            node.set("timestamp", f"{timestamp}.0")
            node.extend(_mid_content(mid))
        for leaf, leaf_timestamp in enumerate(leaves):
            child = Element("leaf", attrib={"id": f"l{leaf}"})
            if leaf_timestamp is None:
                child.set("status", "incomplete")
            else:
                child.set("status", "complete")
                child.set("timestamp", f"{leaf_timestamp}.0")
                child.append(Element("v", text=f"{mid}.{leaf}"))
            node.append(child)
        root.append(node)
    return root


def _assert_sound(database):
    assert database.debug_verify_index() == []
    assert validate_deployment({"s0": database}, _reference_document(),
                               owner_map=_OWNER_MAP) == []
    assert _memo_is_transparent(database.root)


class TestMergeAdoptsWhatItIsHanded:
    @given(st.lists(_FRAGMENT_SPECS, min_size=1, max_size=5))
    @settings(max_examples=80, deadline=None)
    def test_hand_over_and_copy_build_the_same_database(self, specs):
        copied, adopted = _build_database(), _build_database()
        for spec in specs:
            kept = _wire_fragment(spec)
            before = _plain(kept)
            copied.store_fragment(kept)
            assert _plain(kept) == before  # the copying path is read-only
            adopted.store_fragment(_wire_fragment(spec), handed_over=True)
            assert partition_fingerprint(adopted) == \
                partition_fingerprint(copied)
            _assert_sound(copied)
            _assert_sound(adopted)
        assert adopted.stats == copied.stats

    @given(st.lists(_FRAGMENT_SPECS, min_size=1, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_the_same_fragment_object_merges_twice_by_copy(self, specs):
        once, twice = _build_database(), _build_database()
        for spec in specs:
            once.store_fragment(_wire_fragment(spec))
            shared = _wire_fragment(spec)  # one object, two deliveries
            twice.store_fragment(shared)
            twice.store_fragment(shared)
            assert partition_fingerprint(twice) == \
                partition_fingerprint(once)
            _assert_sound(twice)

    @given(st.lists(_FRAGMENT_SPECS, min_size=1, max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_a_journalled_hand_over_replays_to_the_same_database(
            self, specs):
        records = []
        live = _build_database(journal=records.append)
        for spec in specs:
            # Off the wire, as the gather driver gets it.
            reply = m.Message.decode(m.AnswerMessage(
                1, fragment=_wire_fragment(spec), sender="s1").encode())
            live.store_fragment(reply.fragment, handed_over=True)
        assert [record["kind"] for record in records] == \
            ["fragment"] * len(specs)
        replayed = _build_database()
        for record in records:
            apply_record(replayed, record)
        assert partition_fingerprint(replayed) == \
            partition_fingerprint(live)
        _assert_sound(replayed)

"""Answer oracles: what the one logical document says a query must return.

Both oracles split their work in two so that nothing heavy runs between
timed operations: :meth:`digest` reduces an answer to plain strings or
counts the moment it arrives, and :meth:`verify` judges the digest after
the run.  ``verify`` returns a list of violation strings, empty when the
answer is right.
"""

from collections import Counter

from repro.core.consistency import strip_consistency_predicates
from repro.core.idable import find_by_id_path
from repro.core.status import TIMESTAMP_ATTRIBUTE
from repro.xmlkit.compare import canonical_form
from repro.xpath import Evaluator, parse
from repro.xpath.ast import LocationPath

_EVALUATOR = Evaluator()


def _stripped(query):
    return strip_consistency_predicates(parse(query))


class StaticOracle:
    """No updates flow: the answer must equal the consistency-stripped
    query evaluated over the logical document, compared unordered."""

    def __init__(self, document):
        self.root = document

    def digest(self, results):
        # Answers are detached copies the caller owns.  They carry data
        # timestamps, which the logical document does not: freshness is
        # the bound's business, not the comparison's.
        for result in results:
            for node in result.iter():
                node.delete_attribute(TIMESTAMP_ATTRIBUTE)
        return sorted(canonical_form(result) for result in results)

    def verify(self, query, now, digest):
        expected = sorted(
            canonical_form(element)
            for element in _EVALUATOR.evaluate(_stripped(query), self.root))
        if digest == expected:
            return []
        return [f"expected {len(expected)} results, got {len(digest)}"
                if len(expected) != len(digest)
                else "results differ from the logical document"]


def _space_key(space):
    # Detached results carry no ancestry, and space ids repeat in every
    # block, so spaces are matched by everything updates never touch.
    return (space.get("id"), space.child("price").text,
            space.child("meter-hours").text)


class FreshnessOracle:
    """Updates flow: accept exactly what the freshness bound permits.

    With bound *B* and query time *now*, every returned space must show
    an ``available`` value it held at some instant of ``[now - B, now]``,
    and every space that matched the selection throughout that window
    must be returned.  Spaces are matched as multisets of their static
    fields, so the check never rejects a permitted answer.
    """

    def __init__(self, document, bound):
        self.root = document
        self.bound = bound
        self._updates = {}  # id(space element) -> [(time, value), ...]

    def record_update(self, path, values, now):
        space = find_by_id_path(self.root, path, required=True)
        self._updates.setdefault(id(space), []).append(
            (now, values["available"]))

    def _held(self, space, now):
        """The values *space* held during ``[now - bound, now]``."""
        opening = space.child("available").text
        held = set()
        for when, value in self._updates.get(id(space), ()):
            if when <= now - self.bound:
                opening = value
            elif when <= now:
                held.add(value)
        held.add(opening)
        return held

    def digest(self, results):
        return Counter(
            _space_key(space) + (space.child("available").text,)
            for space in results)

    def verify(self, query, now, got):
        # Every query beside a feed selects .../block/parkingSpace
        # [available='yes']: the blocks come from the logical document,
        # the spaces from their histories.
        path = _stripped(query)
        if path.steps[-1].node_test.name != "parkingSpace":
            raise ValueError(f"not a space selection: {query}")
        blocks = _EVALUATOR.evaluate(
            LocationPath(path.absolute, path.steps[:-1]), self.root)
        may, must = Counter(), Counter()
        for block in blocks:
            for space in block.element_children("parkingSpace"):
                held = self._held(space, now)
                if "yes" in held:
                    may[_space_key(space)] += 1
                    if len(held) == 1:
                        must[_space_key(space)] += 1
        problems = []
        for entry, seen in got.items():
            if entry[-1] != "yes":
                problems.append(f"space {entry[:-1]} returned with "
                                f"available={entry[-1]!r}")
            elif seen > may[entry[:-1]]:
                problems.append(
                    f"space {entry[:-1]} returned as available, which it "
                    f"was at no instant of the last {self.bound} s")
        for key, needed in must.items():
            if got[key + ("yes",)] < needed:
                problems.append(f"space {key} was available throughout the "
                                "window but is missing")
        return problems

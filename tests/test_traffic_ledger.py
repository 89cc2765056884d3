"""The traffic ledger: what a repeated query costs on the wire.

On loopback with the clock fixed and message ids restarted per posing,
traffic is deterministic, so each row's cost is exact.  A row is one
query on ``ParkingConfig.tiny()`` (hierarchical placement, seven sites),
posed three times at its first city's site with no update in between.
Each posing is costed in messages, asks (path subqueries sent) and
bytes, and checked by named rules:

* (i) posing n + 1 costs no more than posing n, on all three counts;
* (ii) the third posing sends 0 messages (Section 3.3: a site answers
  from what earlier queries cached; Section 4: a query without a
  consistency predicate takes cached data of any age);
* (iv) a rollup ships no more bytes than the walk does on the same
  posing -- the walk being the gather driver's ``answer_scalar`` on a
  second cluster;
* every answer equals the evaluator over the one logical document.

A row is one tuple in :data:`ROWS`; a path row would be posed through
``cluster.query`` and judged by rules (i) and (ii) alike.
"""

import itertools
import operator
from unittest import mock

import pytest

from repro.arch import hierarchical
from repro.core.consistency import strip_consistency_predicates
from repro.net import Cluster
from repro.service import ParkingConfig, build_parking_document, parking
from repro.xpath import parser as xpath_parser
from repro.xpath.evaluator import Evaluator

CONFIG = ParkingConfig.tiny()
CITY = parking.city_path(CONFIG, CONFIG.city_names()[0])
P = "".join(f"/{tag}[@id='{name}']" for tag, name in CITY)
SPACES = f"{P}/neighborhood/block/parkingSpace"
POSINGS = 3

#: ``(id, query)``: each row is posed :data:`POSINGS` times.
ROWS = [
    ("free-count", f"count({SPACES}[available='yes'])"),
    ("available-count", f"count({SPACES}/available)"),
    ("price-sum", f"sum({SPACES}/price)"),
    ("bounded-count",
     f"count({SPACES}[timestamp() > current-time() - 30])"),
]


def _cluster():
    return Cluster(build_parking_document(CONFIG),
                   hierarchical(CONFIG, n_sites=7).plan,
                   count_bytes=True, clock=lambda: 1000.0)


def _asks(cluster):
    return sum(agent.stats["subqueries_sent"]
               for agent in cluster.agents.values())


def _postings(cluster, answer):
    """``[(value, (messages, asks, bytes))]``, one per posing of
    *answer*, message ids restarted for each."""
    traffic = cluster.network.traffic
    costed = []
    for _ in range(POSINGS):
        before = (traffic.messages, _asks(cluster), traffic.bytes)
        with mock.patch("repro.net.messages._SEQUENCE", itertools.count(1)):
            value = answer()
        after = (traffic.messages, _asks(cluster), traffic.bytes)
        costed.append((value, tuple(map(operator.sub, after, before))))
    return costed


def _ledger(query):
    """The rollup's postings and the walk's, each on its own cluster."""
    rolled, walked = _cluster(), _cluster()
    site = rolled.owner_map[CITY]
    return (
        _postings(rolled, lambda: rolled.scalar(query, at_site=site)),
        _postings(walked, lambda: walked.agents[site].driver.answer_scalar(
            query)),
    )


@pytest.fixture(scope="module", params=ROWS, ids=[row[0] for row in ROWS])
def row(request):
    _name, query = request.param
    rollup, walk = _ledger(query)
    return query, rollup, walk


def test_every_value_is_the_evaluators(row):
    query, rollup, walk = row
    oracle = Evaluator().evaluate(
        strip_consistency_predicates(xpath_parser.parse(query)),
        build_parking_document(CONFIG))
    assert [value for value, _cost in rollup + walk] == \
        [oracle] * (2 * POSINGS)


def test_i_a_repeat_costs_no_more(row):
    _query, rollup, _walk = row
    costs = [cost for _value, cost in rollup]
    for earlier, later in zip(costs, costs[1:]):
        assert all(map(operator.le, later, earlier)), costs


def test_ii_the_third_posing_sends_nothing(row):
    _query, rollup, _walk = row
    messages, _asks_sent, _bytes = rollup[2][1]
    assert messages == 0, [cost for _value, cost in rollup]


def test_iv_the_rollup_ships_no_more_than_the_walk(row):
    _query, rollup, walk = row
    for (_, (_, _, rolled)), (_, (_, _, walked)) in zip(rollup, walk):
        assert rolled <= walked, (rollup, walk)

"""The traffic ledger: what a repeated query costs on the wire.

On loopback with the clock fixed and message ids restarted per posing,
traffic is deterministic, so each row's cost is exact.  A row is one
query on ``ParkingConfig.tiny()`` (hierarchical placement, seven sites),
posed three times at its first city's site with no update in between.
Each posing is costed in messages, asks (subqueries sent, a rollup's
fold items among them) and bytes, and checked by named rules:

* (i) posing n + 1 costs no more than posing n, on all three counts;
* (ii) the third posing sends 0 messages (Section 3.3: a site answers
  from what earlier queries cached; Section 4: a query without a
  consistency predicate takes cached data of any age);
* (iii) a ``//`` form costs at most 1.2 times its child form, posing by
  posing, on all three counts;
* (iv) a rollup ships no more bytes than the walk does on the same
  posing -- the walk being the gather driver's ``answer_scalar`` on a
  second cluster;
* (v) a rollup sends no more messages than the walk does on the same
  posing;
* every answer equals the evaluator over the one logical document.

A scalar row is one tuple in :data:`ROWS`, posed through
``cluster.scalar``; the dead-owner rows pose it with the owner of the
first neighbourhood killed and its data replicated once (``k=1``).  A
path row is one tuple in :data:`PATH_ROWS`, posed through
``cluster.query`` and judged by rules (i) to (iii); each also bounds
every posing by what it costs today.  A rule a row fails today is a
strict xfail naming the ROADMAP item that is to mend it.
"""

import functools
import itertools
import operator
import statistics
import time
from unittest import mock

import pytest

from repro.agg import SHAPES
from repro.arch import hierarchical
from repro.core.consistency import strip_consistency_predicates
from repro.net import Cluster
from repro.replication import ReplicationConfig
from repro.service import ParkingConfig, build_parking_document, parking
from repro.xpath import parser as xpath_parser
from repro.xpath.evaluator import Evaluator
from repro.xpath.types import node_string_value, to_number

CONFIG = ParkingConfig.tiny()


def first_city(config):
    """``(id_path, prefix)`` of *config*'s first city: the rows' ``P``."""
    city = parking.city_path(config, config.city_names()[0])
    return city, "".join(f"/{tag}[@id='{name}']" for tag, name in city)


CITY, P = first_city(CONFIG)
SPACES = f"{P}/neighborhood/block/parkingSpace"
POSINGS = 3
#: The owner of the first city's first neighbourhood.
DEAD = "site-3"

#: ``(id, query, dead)``: each row is posed :data:`POSINGS` times, with
#: :data:`DEAD` killed when *dead*.
ROWS = [
    ("free-count", f"count({SPACES}[available='yes'])", False),
    ("available-count", f"count({SPACES}/available)", False),
    ("price-sum", f"sum({SPACES}/price)", False),
    ("bounded-count",
     f"count({SPACES}[timestamp() > current-time() - 30])", False),
] + [(f"dead-owner-{shape}", f"{shape}({SPACES}/price)", True)
     for shape in SHAPES]


def _walks(query):
    """Whether the walk answers *query* too: its aggregates are count
    and sum."""
    return query.startswith(("count(", "sum("))


WALKED = [row for row in ROWS if _walks(row[1])]

_NO_REPEAT = pytest.mark.xfail(strict=True, reason="ROADMAP 18")
_SCAN = pytest.mark.xfail(strict=True, reason="ROADMAP 17")

#: ``(id, query, costs)``: a path row, and what each of its posings
#: costs today, as ``(messages, asks, bytes)`` -- the most it may cost.
PATH_ROWS = [
    ("free-spaces", f"{SPACES}[available='yes']", ((4, 2, 3020),) * 3),
    ("spaces", SPACES, ((4, 2, 4195), (0, 0, 0), (0, 0, 0))),
    ("free-scan", f"{P}//parkingSpace[available='yes']",
     ((4, 2, 2742),) * 3),
    ("block-free",
     f"{P}/neighborhood/block[@id='1']/parkingSpace[available='yes']",
     ((4, 2, 2202),) * 3),
    ("block-free-scan", f"{P}//block[@id='1']/parkingSpace[available='yes']",
     ((12, 23, 21042), (4, 2, 2202), (4, 2, 2202))),
    ("space-1", f"{SPACES}[@id='1']", ((4, 2, 3001), (0, 0, 0), (0, 0, 0))),
    ("space-1-scan", f"{P}//parkingSpace[@id='1']",
     ((8, 14, 13343), (0, 0, 0), (0, 0, 0))),
]
PATH = {name: query for name, query, _costs in PATH_ROWS}
#: The path rows whose third posing still sends messages.
REPEATING = {"free-spaces", "free-scan", "block-free", "block-free-scan"}
#: ``(scan, child)``: each ``//`` row beside its child form.
SCAN_PAIRS = [
    pytest.param("free-scan", "free-spaces", id="free-scan"),
    pytest.param("block-free-scan", "block-free", id="block-free-scan",
                 marks=_SCAN),
    pytest.param("space-1-scan", "space-1", id="space-1-scan",
                 marks=_SCAN),
]


def _cluster(dead=False, config=CONFIG, n_sites=7):
    cluster = Cluster(build_parking_document(config),
                      hierarchical(config, n_sites=n_sites).plan,
                      count_bytes=True, clock=lambda: 1000.0,
                      subsystems=[ReplicationConfig(k=1)] if dead else ())
    if dead:
        for agent in cluster.agents.values():
            agent.subsystem("replication").replicate_owned()
        cluster.kill_site(DEAD)
    return cluster


def _asks(cluster):
    return sum(agent.stats["subqueries_sent"]
               for agent in cluster.agents.values())


def _postings(cluster, answer, walls=None):
    """``[(value, (messages, asks, bytes))]``, one per posing of
    *answer*, message ids restarted for each; each posing's wall
    seconds are appended to *walls* when given."""
    traffic = cluster.network.traffic
    costed = []
    for _ in range(POSINGS):
        before = (traffic.messages, _asks(cluster), traffic.bytes)
        started = time.perf_counter()
        with mock.patch("repro.net.messages._SEQUENCE", itertools.count(1)):
            value = answer()
        if walls is not None:
            walls.append(time.perf_counter() - started)
        after = (traffic.messages, _asks(cluster), traffic.bytes)
        costed.append((value, tuple(map(operator.sub, after, before))))
    return costed


@functools.cache
def _ledger(query, dead):
    """The rollup's postings and, for a row the walk answers, the
    walk's (else ``[]``), each on its own cluster."""
    rolled = _cluster(dead)
    site = rolled.owner_map[CITY]
    rollup = _postings(rolled, lambda: rolled.scalar(query, at_site=site))
    if not _walks(query):
        return rollup, []
    walked = _cluster(dead)
    return rollup, _postings(
        walked, lambda: walked.agents[site].driver.answer_scalar(query))


@functools.cache
def _posed(query):
    """A path row's postings: the number of results, and the cost."""
    cluster = _cluster()
    site = cluster.owner_map[CITY]
    return _postings(cluster,
                     lambda: len(cluster.query(query, at_site=site)[0]))


def _oracle(query):
    """*query* by the evaluator over the document, bounds stripped;
    ``avg``/``min``/``max``, which XPath 1.0 lacks, over the numbers
    the evaluator's node-set holds."""
    ast = strip_consistency_predicates(xpath_parser.parse(query))
    document = build_parking_document(CONFIG)
    if _walks(query):
        return Evaluator().evaluate(ast, document)
    values = [to_number(node_string_value(node)) for node in
              Evaluator().evaluate(ast.arguments[0], document)]
    return float({"avg": statistics.fmean, "min": min,
                  "max": max}[ast.name](values))


@pytest.fixture(scope="module", params=ROWS, ids=[row[0] for row in ROWS])
def row(request):
    _name, query, dead = request.param
    return (query,) + _ledger(query, dead)


@pytest.fixture(scope="module", params=WALKED,
                ids=[row[0] for row in WALKED])
def walked_row(request):
    _name, query, dead = request.param
    return (query,) + _ledger(query, dead)


@pytest.fixture(scope="module", params=PATH_ROWS,
                ids=[row[0] for row in PATH_ROWS])
def path_row(request):
    _name, query, costs = request.param
    return query, _posed(query), costs


def test_every_value_is_the_evaluators(row):
    query, rollup, walk = row
    values = [value for value, _cost in rollup + walk]
    assert values == [_oracle(query)] * len(values)


def test_i_a_repeat_costs_no_more(row):
    _query, rollup, _walk = row
    costs = [cost for _value, cost in rollup]
    for earlier, later in zip(costs, costs[1:]):
        assert all(map(operator.le, later, earlier)), costs


def test_ii_the_third_posing_sends_nothing(row):
    _query, rollup, _walk = row
    messages, _asks_sent, _bytes = rollup[2][1]
    assert messages == 0, [cost for _value, cost in rollup]


def test_iv_the_rollup_ships_no_more_than_the_walk(walked_row):
    _query, rollup, walk = walked_row
    for (_, (_, _, rolled)), (_, (_, _, walked)) in zip(rollup, walk):
        assert rolled <= walked, (rollup, walk)


def test_v_the_rollup_sends_no_more_messages_than_the_walk(walked_row):
    _query, rollup, walk = walked_row
    for (_, (rolled, _, _)), (_, (walked, _, _)) in zip(rollup, walk):
        assert rolled <= walked, (rollup, walk)


def test_every_path_answer_is_the_evaluators(path_row):
    query, posings, _costs = path_row
    expected = len(Evaluator().evaluate(xpath_parser.parse(query),
                                        build_parking_document(CONFIG)))
    assert [value for value, _cost in posings] == [expected] * POSINGS


def test_i_a_path_repeat_costs_no_more(path_row):
    _query, posings, _costs = path_row
    costs = [cost for _value, cost in posings]
    for earlier, later in zip(costs, costs[1:]):
        assert all(map(operator.le, later, earlier)), costs


def test_a_path_row_costs_no_more_than_today(path_row):
    _query, posings, today = path_row
    for (_value, cost), bound in zip(posings, today):
        assert all(map(operator.le, cost, bound)), (posings, today)


@pytest.mark.parametrize("name", [
    pytest.param(name, marks=_NO_REPEAT if name in REPEATING else ())
    for name in PATH])
def test_ii_a_path_third_posing_sends_nothing(name):
    posings = _posed(PATH[name])
    messages, _asks_sent, _bytes = posings[2][1]
    assert messages == 0, [cost for _value, cost in posings]


@pytest.mark.parametrize("scan, child", SCAN_PAIRS)
def test_iii_a_scan_costs_at_most_its_child_form(scan, child):
    for (_, scanned), (_, walked) in zip(_posed(PATH[scan]),
                                         _posed(PATH[child])):
        assert all(cost <= 1.2 * bound
                   for cost, bound in zip(scanned, walked)), (scan, child)

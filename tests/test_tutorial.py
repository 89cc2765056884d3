"""Executable version of docs/TUTORIAL.md — the documented steps work."""

from repro.core import SensorDatabase
from repro.net import Cluster, TcpCluster
from repro.xmlkit import parse_fragment

DOCUMENT = """
<campus id='hq'>
  <building id='north'>
    <floor id='1'>
      <room id='101'><temp>21.5</temp><occupied>no</occupied></room>
      <room id='102'><temp>23.0</temp><occupied>yes</occupied></room>
    </floor>
    <floor id='2'>
      <room id='201'><temp>19.0</temp><occupied>no</occupied></room>
    </floor>
  </building>
  <building id='south'>
    <floor id='1'>
      <room id='101'><temp>22.0</temp><occupied>yes</occupied></room>
    </floor>
  </building>
</campus>
"""

PLAN = {
    "hq-site": [[("campus", "hq")]],
    "north-site": [[("campus", "hq"), ("building", "north")]],
    "south-site": [[("campus", "hq"), ("building", "south")]],
}


def build():
    return Cluster(parse_fragment(DOCUMENT), PLAN, service="campus")


def test_step_2_partition_and_dns():
    cluster = build()
    record = cluster.dns.lookup("north.hq.campus.intel-iris.net")
    assert record.site == "north-site"
    assert cluster.validate() == []


def test_step_3_queries():
    cluster = build()
    results, site, outcome = cluster.query(
        "/campus[@id='hq']/building[@id='north']//room[occupied='no']")
    assert {r.id for r in results} == {"101", "201"}
    assert site == "north-site"
    assert not outcome.used_remote_data
    assert cluster.scalar(
        "count(/campus[@id='hq']//room[occupied='no'])") == 2.0


def test_step_3_cross_building_caching():
    cluster = build()
    query = "/campus[@id='hq']//room[occupied='no']"
    _r, site, first = cluster.query(query)
    assert site == "hq-site"
    assert first.used_remote_data
    # Repeats reuse the cache; only predicate re-checks on rooms that
    # failed last time remain.
    _r, _s, second = cluster.query(query)
    assert 0 < len(second.subqueries_sent) < len(first.subqueries_sent)


def test_step_4_updates():
    cluster = build()
    room = (("campus", "hq"), ("building", "north"),
            ("floor", "1"), ("room", "101"))
    thermostat = cluster.add_sensing_agent("thermo-101", [room])
    thermostat.send_update(room, values={"temp": "24.5",
                                         "occupied": "yes"})
    results, _, _ = cluster.query(
        "/campus[@id='hq']/building[@id='north']//room[occupied='no']")
    assert {r.id for r in results} == {"201"}


def test_step_5_staleness_and_precision():
    clock = type("Clock", (), {"now": 0.0,
                               "__call__": lambda self: self.now})()
    cluster = Cluster(parse_fragment(DOCUMENT), PLAN, service="campus",
                      clock=clock)
    query = "count(/campus[@id='hq']//room[occupied='no'])"
    exact = cluster.scalar(query)
    clock.now = 30.0
    assert cluster.scalar(query, max_age=120) == exact


def test_step_6_subscription():
    cluster = build()
    seen = []
    cluster.subscribe(
        "/campus[@id='hq']/building[@id='north']//room[occupied='no']",
        lambda rooms: seen.append({r.id for r in rooms}))
    room = (("campus", "hq"), ("building", "north"),
            ("floor", "1"), ("room", "101"))
    sa = cluster.add_sensing_agent("sa", [room])
    sa.send_update(room, values={"occupied": "yes"})
    assert seen[0] == {"101", "201"}
    assert seen[-1] == {"201"}


def test_step_7_operations():
    cluster = build()
    cluster.delegate((("campus", "hq"), ("building", "north"),
                      ("floor", "2")), "south-site")
    cluster.add_node((("campus", "hq"), ("building", "south"),
                      ("floor", "1")), "room", "103",
                     values={"temp": "20.0", "occupied": "no"})
    results, _, _ = cluster.query(
        "/campus[@id='hq']//room[occupied='no']")
    assert {r.id for r in results} == {"101", "201", "103"}
    assert cluster.validate(structural_only=True) == []


def test_step_8_tcp_and_persistence(tmp_path):
    with TcpCluster(parse_fragment(DOCUMENT), PLAN,
                    service="campus") as tcp:
        results, _, _ = tcp.cluster.query(
            "/campus[@id='hq']//room[occupied='no']")
        assert len(results) == 2
        tcp.cluster.database("north-site").save(
            str(tmp_path / "north.xml"))
    restored = SensorDatabase.load(str(tmp_path / "north.xml"),
                                   site_id="north-site")
    assert restored.find((("campus", "hq"), ("building", "north"),
                          ("floor", "1"), ("room", "101"))) is not None

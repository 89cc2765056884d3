"""Aggregation smoke check: a real TCP rollup plus a derived sensor.

``python -m repro.smoke aggregation`` (needs ``PYTHONPATH=src:.``) stands up a
three-site TCP deployment and walks the aggregation loop over real
sockets:

* hierarchical rollups: all five shapes over the whole region, a
  count under a value predicate and one through a ``//`` scan, each
  path answered once through fold items asked of the two
  child sites and its other shapes from that summary, all checked
  against hand-computed truth;
* summary caching: the same bounded ask twice is one rollup and one
  summary hit;
* a derived sensor registered at the root: its initial value is
  written into the document, and a sensor update on a child site
  (through the OA's update handler, over TCP) re-fires it through the
  continuous-query subscription.

The summary carries the rollup/summary/derived counters, so CI can
archive what the hierarchy actually did.
"""

from repro.smoke import (
    impatient_oa_config,
    three_site_document,
    three_site_plan,
    ticking_clock,
)


def _document():
    from repro.xmlkit import Element

    root = three_site_document(
        value=lambda group, sensor: 10 * group + sensor)
    # One sensor owned by the root site itself: the local tick that
    # wakes root-hosted continuous subscriptions (the documented
    # continuous-query scope -- remote updates are seen on the next
    # locally triggered re-evaluation).
    heartbeat = Element("sensor", attrib={"id": "hb"})
    heartbeat.append(Element("value", text="0"))
    root.append(heartbeat)
    return root


ALL_VALUES = "/region[@id='R']/group/sensor/value"
BOUNDED = ALL_VALUES + "[timestamp() > current-time() - 120]"
#: values 0,1,2 (g0) and 10,11,12 (g1); the root heartbeat sensor is
#: not under a group, so only the ``//`` scan sees it.
TRUTH = {f"{shape}({ALL_VALUES})": value for shape, value in (
    ("count", 6.0), ("sum", 36.0), ("avg", 6.0), ("min", 0.0),
    ("max", 12.0))}
TRUTH[f"count({ALL_VALUES}[. > 5])"] = 3.0
TRUTH["count(/region[@id='R']//value)"] = 7.0
G1_S2 = (("region", "R"), ("group", "g1"), ("sensor", "s2"))
HEARTBEAT = (("region", "R"), ("sensor", "hb"))
FORMULA = f"max({ALL_VALUES}) - min({ALL_VALUES})"


def run(artifacts):
    from repro.net.messages import UpdateMessage
    from repro.net.tcpruntime import TcpCluster

    problems = []
    tcp = TcpCluster(_document(), three_site_plan(),
                     oa_config=impatient_oa_config(),
                     clock=ticking_clock())
    try:
        cluster = tcp.cluster

        # 1. Every shape, a value predicate and a ``//`` scan: each
        #    path rolled up over the wire once, and every other shape
        #    over it served from that summary.
        manager = cluster.agents["top"].subsystem("aggregation")
        rolled = set()
        for query, expected in TRUTH.items():
            inner = query[query.index("("):]
            before = manager.metrics()["partials_fetched"]
            value = cluster.scalar(query, at_site="top")
            if value != expected:
                problems.append(
                    f"{query}: rollup said {value!r}, truth {expected!r}")
            fetched = manager.metrics()["partials_fetched"] > before
            if fetched == (inner in rolled):
                problems.append(f"{query}: partials fetched: {fetched}")
            rolled.add(inner)

        # 2. The bounded ask twice: *both* are summary hits -- the
        #    unbounded rollups above already stored the partial
        #    under the same freshness-stripped key (cross-shape and
        #    cross-bound sharing), current when it was stored.
        before = manager.metrics()["summary"]["hits"]
        for _ in range(2):
            cluster.scalar(f"avg({BOUNDED})", at_site="top")
        if manager.metrics()["summary"]["hits"] != before + 2:
            problems.append("bounded asks were not summary-served")

        # 3. A derived sensor: spread = max - min, refreshed by an
        #    update that arrives at a *child* site over TCP.
        sensor = cluster.subsystem("aggregation").register_derived_sensor(
            (("region", "R"),), "spread", FORMULA)
        if sensor.last_value != 12.0:
            problems.append(
                f"derived initial value {sensor.last_value!r}, wanted 12.0")
        cluster.agents["leaf"].handle_message(UpdateMessage(
            G1_S2, values={"value": "50"}, sender="sa-smoke"))
        # The subscription lives at the root owner, so a *root-owned*
        # update wakes it; the refresh then recomputes the rollup and
        # picks up the leaf's new value over the wire: one partial per
        # group, which both aggregates finalize, though the subscription
        # cached every sensor at the root.
        before = manager.metrics()["partials_fetched"]
        cluster.agents["top"].handle_message(UpdateMessage(
            HEARTBEAT, values={"value": "1"}, sender="sa-smoke"))
        refresh_partials = manager.metrics()["partials_fetched"] - before
        if sensor.last_value != 50.0:
            problems.append(
                f"derived sensor did not re-fire: {sensor.last_value!r}")
        if refresh_partials != 2:
            problems.append(
                f"the refresh sent {refresh_partials} partials, wanted 2")
        derived_answer = cluster.scalar(
            "count(/region[@id='R']/derived[@id='spread'])",
            at_site="top")
        if derived_answer != 1.0:
            problems.append("derived sensor is not queryable")

        counters = manager.metrics()
        summary = {
            "queries_checked": sorted(TRUTH),
            "formula": FORMULA,
            "derived_final_value": sensor.last_value,
            "refresh_partials": refresh_partials,
            "site_counters": {
                site: cluster.agents[site].subsystem("aggregation").metrics()
                for site in ("top", "mid", "leaf")},
            "summary_hit_ratio": counters["summary_hit_ratio"],
        }
        summary["headline"] = (
            f"five shapes rolled up over TCP "
            f"({summary['site_counters']['top']['partials_fetched']} "
            f"partials fetched by 'top'), repeat ask "
            f"summary-served, derived sensor 'spread' re-fired to "
            f"{sensor.last_value:g}.")
        return problems, summary
    finally:
        tcp.close()

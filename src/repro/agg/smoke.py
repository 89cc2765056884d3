"""Aggregation smoke check: a real TCP rollup plus a derived sensor.

``python -m repro.smoke aggregation`` (needs ``PYTHONPATH=src:.``) stands up a
three-site TCP deployment with aggregation enabled and walks the
tentpole loop over real sockets:

* hierarchical rollups: all five shapes over the whole region, each
  answered through partial-aggregate subqueries to the two child
  sites, with ``count``/``sum`` checked against hand-computed truth;
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
#: not under a group, so no shape sees it.
TRUTH = {"count": 6.0, "sum": 36.0, "avg": 6.0, "min": 0.0, "max": 12.0}
G1_S2 = (("region", "R"), ("group", "g1"), ("sensor", "s2"))
HEARTBEAT = (("region", "R"), ("sensor", "hb"))
FORMULA = f"max({ALL_VALUES}) - min({ALL_VALUES})"


def run(artifacts):
    from repro.agg import AggregationConfig
    from repro.net.messages import UpdateMessage
    from repro.net.tcpruntime import TcpCluster

    problems = []
    tcp = TcpCluster(_document(), three_site_plan(),
                     oa_config=impatient_oa_config(),
                     subsystems=[AggregationConfig()],
                     clock=ticking_clock())
    try:
        cluster = tcp.cluster

        # 1. Every shape, rolled up over the wire.
        for shape, expected in TRUTH.items():
            value = cluster.scalar(f"{shape}({ALL_VALUES})",
                                   at_site="top")
            if value != expected:
                problems.append(
                    f"{shape}: rollup said {value!r}, truth {expected!r}")
        manager = cluster.agents["top"].subsystem("aggregation")
        if manager.metrics()["partials_fetched"] == 0:
            problems.append("no partial-aggregate subquery was sent")

        # 2. The bounded ask twice: *both* are summary hits -- the
        #    unbounded rollups above already stored the merge-state
        #    under the same freshness-stripped key (cross-shape and
        #    cross-bound sharing).
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
        # picks up the leaf's new value over the wire.
        cluster.agents["top"].handle_message(UpdateMessage(
            HEARTBEAT, values={"value": "1"}, sender="sa-smoke"))
        if sensor.last_value != 50.0:
            problems.append(
                f"derived sensor did not re-fire: {sensor.last_value!r}")
        derived_answer = cluster.scalar(
            "count(/region[@id='R']/derived[@id='spread'])",
            at_site="top")
        if derived_answer != 1.0:
            problems.append("derived sensor is not queryable")

        counters = manager.metrics()
        summary = {
            "shapes_checked": sorted(TRUTH),
            "formula": FORMULA,
            "derived_final_value": sensor.last_value,
            "site_counters": {
                site: cluster.agents[site].subsystem("aggregation").metrics()
                for site in ("top", "mid", "leaf")},
            "summary_hit_ratio": counters["summary_hit_ratio"],
        }
        summary["headline"] = (
            f"five shapes rolled up over TCP "
            f"({summary['site_counters']['top']['partials_fetched']} "
            f"partial-aggregate subqueries from 'top'), repeat ask "
            f"summary-served, derived sensor 'spread' re-fired to "
            f"{sensor.last_value:g}.")
        return problems, summary
    finally:
        tcp.close()

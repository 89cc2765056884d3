"""Hierarchical aggregation and a derived sensor, end to end.

Walks aggregation on a three-site deployment:

* an `avg` over every sensor is answered through fold items asked of
  the owning sites -- merge-state tuples on the wire, never subtrees;
* a repeat ask inside the freshness bound is a summary-cache hit, and
  a `count` prewarms the `max` (all shapes share one summary);
* a derived sensor (`spread = max - min`) registers as an ordinary
  document node, re-evaluates when covered data changes, and is
  queryable like any physical sensor;
* EXPLAIN shows the rollup decision without touching the counters.

Run:  python examples/derived_sensors.py   (needs src/ on PYTHONPATH)
"""

from repro.net import Cluster
from repro.net.messages import UpdateMessage
from repro.xmlkit import parse_fragment

DOCUMENT = """
<region id='R'>
  <group id='north'>
    <sensor id='s0'><value>12.5</value></sensor>
    <sensor id='s1'><value>14.0</value></sensor>
  </group>
  <group id='south'>
    <sensor id='s0'><value>21.0</value></sensor>
    <sensor id='s1'><value>18.5</value></sensor>
  </group>
  <sensor id='hb'><value>0</value></sensor>
</region>
"""

ALL_VALUES = "/region[@id='R']/group/sensor/value"
BOUNDED = ALL_VALUES + "[timestamp() > current-time() - 60]"


class Clock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


def main():
    clock = Clock()
    cluster = Cluster(parse_fragment(DOCUMENT), {
        "root": [[("region", "R")]],
        "north": [[("region", "R"), ("group", "north")]],
        "south": [[("region", "R"), ("group", "south")]],
    }, clock=clock)
    manager = cluster.agent("root").subsystem("aggregation")

    print("== Rollups: tuples on the wire, not subtrees ==")
    for shape in ("count", "sum", "avg", "min", "max"):
        value = cluster.scalar(f"{shape}({BOUNDED})", at_site="root")
        print(f"  {shape:>5}: {value:g}")
    counters = manager.metrics()
    print(f"  -> {counters['partials_fetched']} partials fetched "
          f"by fold items, {counters['summary']['hits']} summary hits "
          "(count prewarmed the rest: one summary serves all five "
          "shapes)")

    print("\n== The summary honors the freshness bound ==")
    clock.now += 50.0
    cluster.agents["south"].handle_message(UpdateMessage(
        (("region", "R"), ("group", "south"), ("sensor", "s0")),
        values={"value": "35.0"}, sender="sa"))
    print(f"  update applied at t={clock.now:g}; "
          f"max within bound: {cluster.scalar('max(' + BOUNDED + ')', at_site='root'):g}"
          " (summary-served, bounded staleness)")
    clock.now += 20.0
    print(f"  t={clock.now:g}, past the bound: "
          f"{cluster.scalar('max(' + BOUNDED + ')', at_site='root'):g}"
          " (recomputed; only the re-stamped sensor is inside the bound)")

    print("\n== A derived sensor is an ordinary node ==")
    sensor = cluster.subsystem("aggregation").register_derived_sensor(
        (("region", "R"),), "spread",
        f"max({ALL_VALUES}) - min({ALL_VALUES})")
    print(f"  registered spread = max - min -> {sensor.last_value:g}")
    results, _, _ = cluster.query(
        "/region[@id='R']/derived[@id='spread']", at_site="root")
    print(f"  queryable like a physical sensor: "
          f"{[v.text for r in results for v in r.iter('value')]}")

    cluster.agents["south"].handle_message(UpdateMessage(
        (("region", "R"), ("group", "south"), ("sensor", "s1")),
        values={"value": "50.0"}, sender="sa"))
    cluster.agents["root"].handle_message(UpdateMessage(
        (("region", "R"), ("sensor", "hb")),
        values={"value": "1"}, sender="sa"))
    print(f"  a remote update lands, a root-covered update wakes the "
          f"subscription: spread = {sensor.last_value:g}")

    print("\n== EXPLAIN shows the rollup decision ==")
    report = cluster.explain(f"avg({BOUNDED})")
    for line in report.render().splitlines():
        if "aggregation" in line or "summary" in line.lower():
            print(f"  {line.strip()}")


if __name__ == "__main__":
    main()

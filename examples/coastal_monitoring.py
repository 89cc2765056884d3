"""Coastal monitoring: IrisNet on the Oregon coastline (Section 1).

The paper's second envisioned deployment: buoy/station sensors feeding
a coastline hierarchy, queried for rip-current risk and other coastal
phenomena.  Demonstrates that the whole stack -- partitioning, QEG,
caching, consistency -- is service-agnostic: only the document and the
queries change.

Run:  python examples/coastal_monitoring.py
"""

from repro.core import PartitionPlan
from repro.net import Cluster
from repro.service import (
    CoastalConfig,
    build_coastal_document,
    high_risk_query,
    region_alert_query,
    station_path,
)
from repro.xmlkit import serialize


class Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def main():
    config = CoastalConfig(regions=3, stations_per_region=4)
    document = build_coastal_document(config)
    clock = Clock()

    # One headquarters site plus one site per coastal region.
    plan = PartitionPlan({
        "hq": [(("coastline", "oregon"),)],
        "north": [(("coastline", "oregon"), ("region", "north-coast"))],
        "central": [(("coastline", "oregon"), ("region", "central-coast"))],
        "south": [(("coastline", "oregon"), ("region", "south-coast"))],
    })
    cluster = Cluster(document, plan, service="coast", clock=clock)
    print(f"coastline deployed across {len(cluster.sites)} sites")

    # A // query sweeping every region for dangerous rip currents.
    results, site, outcome = cluster.query(high_risk_query())
    print(f"\nhigh rip-current-risk stations "
          f"(query entered at {site!r}, "
          f"{len(outcome.subqueries_sent)} subqueries):")
    for station in results:
        print("   station", station.id,
              "wave-height", station.child("wave-height").text)

    # Buoys report in; risk changes propagate to the owners.
    buoy = cluster.add_sensing_agent(
        "buoy-n1", [station_path("north-coast", "st-1")])
    buoy.send_update(station_path("north-coast", "st-1"),
                     values={"rip-current-risk": "high",
                             "wave-height": "6.20"})
    results, _, _ = cluster.query(high_risk_query())
    print(f"\nafter buoy update: {len(results)} high-risk station(s)")

    # Regional alert dashboards tolerate two-minute-old data, so they
    # are served from caches; the tolerance is part of the query.
    clock.now = 60.0
    for region in config.region_names():
        answer, _, _ = cluster.query(region_alert_query(region),
                                     at_site="hq")
        level = answer[0].text if answer else "?"
        print(f"alert level {region:14s}: {level}")

    # Aggregates gather across all sites; with a staleness tolerance
    # they come straight from the aggregate cache (Section 4's
    # "acceptable precision").
    count_query = "count(/coastline[@id='oregon']//station[wave-height > 2])"
    exact = cluster.scalar(count_query)
    clock.now += 10
    cached = cluster.scalar(count_query, max_age=60)
    print(f"\nstations with waves above 2m: {exact:.0f} "
          f"(tolerant re-ask from aggregate cache: {cached:.0f})")

    # Continuous queries (Section 7): a standing rip-current watch.
    alerts = []
    cluster.subscribe(
        "/coastline[@id='oregon']/region[@id='south-coast']"
        "//station[rip-current-risk='high']",
        lambda results: alerts.append(len(results)),
    )
    south_buoy = cluster.add_sensing_agent(
        "buoy-s2", [station_path("south-coast", "st-2")])
    south_buoy.send_update(station_path("south-coast", "st-2"),
                           values={"rip-current-risk": "high"})
    print(f"continuous query notifications: {alerts} "
          "(initial answer, then the new high-risk station)")

    print("invariant violations:",
          cluster.validate(None) or "none")


if __name__ == "__main__":
    main()

"""Integration tests on the coastal-monitoring service (second domain).

Exercises the system on a differently shaped hierarchy (3 levels,
``//`` queries, consistency tolerances), as the paper's Oregon-coast
deployment motivates.
"""

import pytest

from repro.core import PartitionPlan
from repro.net import Cluster
from repro.service import (
    CoastalConfig,
    build_coastal_document,
    high_risk_query,
    region_alert_query,
    station_path,
)


@pytest.fixture
def coastal(settable_clock):
    config = CoastalConfig(regions=3, stations_per_region=4)
    document = build_coastal_document(config)
    plan = PartitionPlan({
        "hq": [(("coastline", "oregon"),)],
        "north": [(("coastline", "oregon"), ("region", "north-coast"))],
        "central": [(("coastline", "oregon"), ("region", "central-coast"))],
        "south": [(("coastline", "oregon"), ("region", "south-coast"))],
    })
    cluster = Cluster(document.copy(), plan, service="coast",
                      clock=settable_clock)
    return document, cluster, settable_clock


class TestCoastalQueries:
    def test_descendant_risk_sweep(self, coastal):
        document, cluster, _clock = coastal
        results, _site, _outcome = cluster.query(high_risk_query())
        expected = {
            (station.parent.id, station.id)
            for station in document.iter("station")
            if station.child("rip-current-risk").text == "high"
        }
        got = {(r.parent.id if r.parent else None, r.id) for r in results}
        # Results are detached copies; compare by station id only.
        assert {s for _r, s in got} == {s for _r, s in expected}

    def test_region_alert_with_tolerance(self, coastal):
        _document, cluster, clock = coastal
        results, _, _ = cluster.query(region_alert_query("north-coast"))
        assert len(results) == 1
        assert results[0].tag == "alert-level"

    def test_station_update_and_requery(self, coastal):
        _document, cluster, _clock = coastal
        path = station_path("north-coast", "st-1")
        sa = cluster.add_sensing_agent("buoy-1", [path])
        sa.send_update(path, values={"rip-current-risk": "high",
                                     "wave-height": "5.10"})
        results, _, _ = cluster.query(high_risk_query())
        assert any(r.id == "st-1" for r in results)

    def test_cross_region_aggregate(self, coastal):
        _document, cluster, _clock = coastal
        count = cluster.scalar("count(/coastline[@id='oregon']//station)")
        assert count == 12.0

    def test_validate(self, coastal):
        document, cluster, _clock = coastal
        cluster.query(high_risk_query())
        assert cluster.validate(document) == []

    def test_stale_tolerance_refetches_from_owner(self, coastal):
        _document, cluster, clock = coastal
        query = region_alert_query("south-coast")
        # Warm a cache at hq.
        cluster.query(query, at_site="hq")
        agent = cluster.agent("hq")
        baseline = agent.stats["subqueries_sent"]
        # Within tolerance: served from cache.
        clock.advance(30)
        cluster.query(query, at_site="hq")
        assert agent.stats["subqueries_sent"] == baseline
        # Beyond the 120s tolerance: the owner is consulted again.
        clock.advance(200)
        cluster.query(query, at_site="hq")
        assert agent.stats["subqueries_sent"] > baseline

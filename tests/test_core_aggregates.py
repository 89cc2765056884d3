"""Tests for the acceptable-precision aggregate extension (Section 4).

Scalar answers and rollup summaries are both held in a plain
:class:`~repro.core.semcache.SemanticCache`; the cases here check the
clock-bound behaviour the scalar path relies on, region eviction
through both holders, and the cluster-level tolerant-query contract.
"""

import pytest

from repro.core import PartitionPlan
from repro.core.semcache import SemanticCache
from repro.net import (
    Cluster,
    FaultyNetwork,
    LoopbackNetwork,
    OAConfig,
    RetryPolicy,
)
from repro.xmlkit import parse_fragment

from tests.conftest import OAKLAND

PREFIX = ("/usRegion[@id='NE']/state[@id='PA']/county[@id='Allegheny']"
          "/city[@id='Pittsburgh']")
COUNT = f"count({PREFIX}//parkingSpace[available='yes'])"


class TestAggregateCache:
    def test_miss_then_hit_within_age(self, settable_clock):
        cache = SemanticCache()
        assert cache.lookup(COUNT, settable_clock(), max_age=60) is None
        cache.store(COUNT, 4.0, settable_clock())
        settable_clock.advance(30)
        assert cache.lookup(COUNT, settable_clock(), max_age=60).value == 4.0

    def test_expired_entry_misses(self, settable_clock):
        cache = SemanticCache()
        cache.store(COUNT, 4.0, settable_clock())
        settable_clock.advance(120)
        assert cache.lookup(COUNT, settable_clock(), max_age=60) is None

    def test_no_tolerance_never_hits(self, settable_clock):
        cache = SemanticCache()
        cache.store(COUNT, 4.0, settable_clock())
        assert cache.lookup(COUNT, settable_clock()) is None

    def test_invalidate(self, settable_clock):
        cache = SemanticCache()
        cache.store(COUNT, 4.0, settable_clock())
        cache.invalidate(COUNT)
        assert cache.lookup(COUNT, settable_clock(), max_age=999) is None
        cache.store("a", 1, settable_clock())
        cache.store("b", 2, settable_clock())
        cache.invalidate()
        assert len(cache) == 0


# ----------------------------------------------------------------------
# Region eviction: one rule, two holders
# ----------------------------------------------------------------------
REGION_DOCUMENT = """
<root id='r'>
  <zone id='a'>
    <block id='1'><s id='x'><value>1</value></s></block>
    <block id='1/2'><s id='y'><value>2</value></s></block>
  </zone>
  <zone id='b'>
    <block id='1'><s id='z'><value>3</value></s></block>
  </zone>
</root>
"""
ZONE_A = (("root", "r"), ("zone", "a"))
MIGRATED = ZONE_A + (("block", "1"),)
#: label -> (inner path asked, the region its entry carries)
REGION_ASKS = {
    "above": ("/root[@id='r']/zone[@id='a']", ZONE_A),
    "equal": ("/root[@id='r']/zone[@id='a']/block[@id='1']", MIGRATED),
    "below": ("/root[@id='r']/zone[@id='a']/block[@id='1']/s[@id='x']",
              MIGRATED + (("s", "x"),)),
    "beside": ("/root[@id='r']/zone[@id='b']",
               (("root", "r"), ("zone", "b"))),
    # A string-prefix test reads "block=1/2" as a child of "block=1".
    "slash-in-id": ("/root[@id='r']/zone[@id='a']/block[@id='1/2']",
                    ZONE_A + (("block", "1/2"),)),
}


def _one_site_agent(subsystems=()):
    cluster = Cluster(parse_fragment(REGION_DOCUMENT),
                      PartitionPlan({"only": [(("root", "r"),)]}),
                      subsystems=subsystems)
    return cluster.agents["only"]


def _scalar_holder():
    agent = _one_site_agent()
    return agent, agent.driver.aggregates


def _summary_holder():
    agg = pytest.importorskip("repro.agg")
    agent = _one_site_agent([agg.AggregationConfig()])
    return agent, agent.subsystem("aggregation").summaries


@pytest.mark.parametrize("holder", [_scalar_holder, _summary_holder],
                         ids=["scalar-cache", "summary-cache"])
def test_evict_paths_drops_exactly_the_overlapping_regions(holder):
    agent, cache = holder()
    for inner, _region in REGION_ASKS.values():
        assert agent.answer_scalar(f"count({inner})") == 1.0
    cache.store("anchorless", 2.0, now=0.0)
    held = {entry.region for entry in map(cache.peek, cache.keys())}
    assert held == {region for _inner, region in REGION_ASKS.values()} \
        | {None}

    assert cache.evict_paths([MIGRATED]) == 3
    assert cache.metrics()["predicate_evictions"] == 3
    survivors = {entry.region for entry in map(cache.peek, cache.keys())}
    assert survivors == {REGION_ASKS["beside"][1],
                         REGION_ASKS["slash-in-id"][1], None}
    # Lists off the wire name the same regions as tuples do.
    assert cache.evict_paths([[list(pair) for pair in
                               REGION_ASKS["beside"][1]]]) == 1


def test_an_anchorless_scalar_is_stored_without_a_region():
    agent, cache = _scalar_holder()
    assert agent.answer_scalar("count(/root/zone)") == 2.0
    [key] = cache.keys()
    assert cache.peek(key).region is None
    assert cache.evict_paths([(("root", "r"),)]) == 0


class TestClusterPrecisionQueries:
    def test_tolerant_aggregate_served_from_cache(self, paper_doc,
                                                  paper_plan,
                                                  settable_clock):
        cluster = Cluster(paper_doc, paper_plan, clock=settable_clock)
        site, _ = cluster.route_query(COUNT)
        agent = cluster.agent(site)

        exact = cluster.scalar(COUNT)
        sent = agent.stats["subqueries_sent"]

        # Within tolerance: answered from the aggregate cache, no new
        # gather at all.
        settable_clock.advance(10)
        tolerant = cluster.scalar(COUNT, max_age=60)
        assert tolerant == exact
        assert agent.stats["subqueries_sent"] == sent
        assert agent.driver.aggregates.stats["hits"] == 1

    def test_stale_aggregate_recomputed(self, paper_doc, paper_plan,
                                        settable_clock):
        cluster = Cluster(paper_doc, paper_plan, clock=settable_clock)
        site, _ = cluster.route_query(COUNT)
        first = cluster.scalar(COUNT)

        # The world changes...
        space = OAKLAND + (("block", "1"), ("parkingSpace", "2"))
        sa = cluster.add_sensing_agent("sa-agg", [space])
        sa.send_update(space, values={"available": "yes"})
        settable_clock.advance(120)

        # ...a tolerant query past its age bound recomputes.
        fresh = cluster.scalar(COUNT, max_age=60)
        assert fresh == first + 1

    def test_exact_query_never_uses_aggregate_cache(self, paper_doc,
                                                    paper_plan,
                                                    settable_clock):
        cluster = Cluster(paper_doc, paper_plan, clock=settable_clock)
        first = cluster.scalar(COUNT)
        space = OAKLAND + (("block", "1"), ("parkingSpace", "2"))
        sa = cluster.add_sensing_agent("sa-agg", [space])
        sa.send_update(space, values={"available": "yes"})
        assert cluster.scalar(COUNT) == first + 1  # no tolerance given

    def test_partial_aggregate_is_not_cached_as_the_whole(self, paper_doc,
                                                          paper_plan,
                                                          settable_clock):
        """A count taken while a site was down must not be served, under
        ``max_age``, as the full count once the site is back."""
        query = f"count({PREFIX}/neighborhood/block/parkingSpace)"
        retries = RetryPolicy(max_attempts=3, base_delay=0.0, max_delay=0.0,
                              jitter=0.0, sleep=lambda seconds: None)
        cluster = Cluster(paper_doc, paper_plan, clock=settable_clock,
                          oa_config=OAConfig(retry_policy=retries),
                          network=FaultyNetwork(LoopbackNetwork(), seed=0))
        cluster.network.crash("shady")
        assert cluster.scalar(query, at_site="top") == 3.0
        assert len(cluster.agents["top"].driver.aggregates) == 0

        cluster.network.recover("shady")
        settable_clock.advance(10)
        assert cluster.scalar(query, at_site="top", max_age=60) == 5.0
        # The complete answer is cached and served from then on.
        sent = cluster.agents["top"].stats["subqueries_sent"]
        assert cluster.scalar(query, at_site="top", max_age=60) == 5.0
        assert cluster.agents["top"].stats["subqueries_sent"] == sent

"""Quickstart: a wide area sensor database in ~60 lines.

Builds the paper's running example -- parking spaces in Pittsburgh --
partitions the single XML document across three sites, and runs the
Figure 2 query ("all available parking spaces in Oakland block 1 or
Shadyside block 1") with self-starting DNS routing, query-evaluate-
gather and caching, all in-process.

Run:  python examples/quickstart.py
"""

from repro.net import Cluster
from repro.xmlkit import parse_fragment, serialize

DOCUMENT = """
<usRegion id='NE'>
  <state id='PA'><county id='Allegheny'><city id='Pittsburgh'>
    <neighborhood id='Oakland' zipcode='15213'>
      <block id='1'>
        <parkingSpace id='1'><available>yes</available><price>25</price></parkingSpace>
        <parkingSpace id='2'><available>no</available><price>0</price></parkingSpace>
      </block>
    </neighborhood>
    <neighborhood id='Shadyside' zipcode='15232'>
      <block id='1'>
        <parkingSpace id='1'><available>yes</available><price>50</price></parkingSpace>
      </block>
    </neighborhood>
  </city></county></state>
</usRegion>
"""

FIGURE2_QUERY = (
    "/usRegion[@id='NE']/state[@id='PA']/county[@id='Allegheny']"
    "/city[@id='Pittsburgh']"
    "/neighborhood[@id='Oakland' or @id='Shadyside']"
    "/block[@id='1']/parkingSpace[available='yes']"
)


def main():
    document = parse_fragment(DOCUMENT)

    # Partition: one site owns the upper hierarchy, one site per
    # neighborhood (ownership is per IDable node; everything below an
    # assignment follows it).
    city = [("usRegion", "NE"), ("state", "PA"),
            ("county", "Allegheny"), ("city", "Pittsburgh")]
    cluster = Cluster(document, {
        "top-site": [[("usRegion", "NE")]],
        "oakland-site": [city + [("neighborhood", "Oakland")]],
        "shadyside-site": [city + [("neighborhood", "Shadyside")]],
    })

    # 1. Self-starting routing: the LCA's DNS name comes straight from
    #    the query string -- no global state, no schema.
    site, lca = cluster.route_query(FIGURE2_QUERY)
    print("query routes to:", site,
          "(LCA:", "/".join(f"{t}={i}" for t, i in lca) + ")")
    print("DNS name:", cluster.dns.name_for(lca))

    # 2. Query-evaluate-gather: the LCA site answers from its fragment
    #    and pulls the missing parts from the owners.
    results, site, outcome = cluster.query(FIGURE2_QUERY)
    print(f"\n{len(results)} available space(s) "
          f"(gathered with {len(outcome.subqueries_sent)} subqueries):")
    for result in results:
        print("  ", serialize(result))

    # 3. Aggressive caching: the same query again is a pure local hit.
    _results, _site, outcome = cluster.query(FIGURE2_QUERY)
    print(f"\nsecond run used {len(outcome.subqueries_sent)} subqueries "
          "(answered from cache)")

    # 4. Sensor updates flow to the owner and are instantly queryable.
    space = tuple(city) + (("neighborhood", "Oakland"), ("block", "1"),
                           ("parkingSpace", "2"))
    sensor = cluster.add_sensing_agent("webcam-1", [space])
    sensor.send_update(space, values={"available": "yes"})
    results, _, _ = cluster.query(FIGURE2_QUERY)
    print(f"\nafter space 2 frees up: {len(results)} available space(s)")

    # 5. Everything above preserved the storage invariants at every site.
    problems = cluster.validate(None)
    print("\ninvariant violations:", problems or "none")


if __name__ == "__main__":
    main()

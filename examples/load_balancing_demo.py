"""Dynamic load balancing: Figure 9's scenario as a live demo.

A skewed workload hammers one neighborhood.  While queries keep
flowing, the hot neighborhood's blocks are delegated to other sites one
by one -- the paper's atomic ownership-migration protocol (Section 4) --
and the per-site load spreads out.  Answers stay correct throughout.

Run:  python examples/load_balancing_demo.py
"""

from repro.arch import hierarchical
from repro.net import Cluster
from repro.service import (
    ParkingConfig,
    QueryWorkload,
    build_parking_document,
)
from repro.service.parking import block_path


def owned_counts(cluster):
    return {site: len(cluster.database(site).owned_nodes())
            for site in cluster.sites}


def serve(cluster, workload, count):
    """Serve *count* queries; returns per-site query-handling counts."""
    handled = {site: 0 for site in cluster.sites}
    for _ in range(count):
        query, _qtype = workload.sample()
        _results, site, outcome = cluster.query(query)
        handled[site] += 1
        for subquery in outcome.subqueries_sent:
            # Attribute remote work to the owner that served it.
            name = cluster.dns.name_for(subquery.anchor_path)
            handled[cluster.dns.lookup(name).site] += 1
    return handled


def show(title, handled):
    total = sum(handled.values())
    print(f"\n{title} (total work units: {total})")
    for site in sorted(handled):
        bar = "#" * int(40 * handled[site] / max(total, 1))
        print(f"  {site:8s} {handled[site]:5d} {bar}")


def main():
    config = ParkingConfig.paper_small()
    document = build_parking_document(config)
    cluster = Cluster(document, hierarchical(config).plan)
    workload = QueryWorkload.qw(config, 1, skew=0.9,
                                hot_city="Pittsburgh",
                                hot_neighborhood="Oakland", seed=8)

    print("90% of the workload targets Pittsburgh/Oakland.")
    show("BEFORE balancing: work lands on Oakland's site",
         serve(cluster, workload, 300))

    print("\nmigrating Oakland's 20 blocks across all 9 sites, "
          "one delegation at a time...")
    moved = 0
    for index, block in enumerate(config.block_ids()):
        path = block_path(config, "Pittsburgh", "Oakland", block)
        target = f"site-{index % 9}"
        if cluster.owner_map[tuple(path)] != target:
            cluster.delegate(path, target)
            moved += 1
        # Queries between delegations still work (the DNS flip makes
        # each hand-off atomic for the rest of the system).
        cluster.query(workload.sample()[0])
    print(f"moved {moved} blocks; system answered queries throughout")

    # Clients re-resolve once their cached DNS entries expire; model
    # that by flushing the client resolver (the paper's TTL story).
    cluster.client_resolver.invalidate()

    show("AFTER balancing: the same workload spreads out",
         serve(cluster, workload, 300))

    print("\ninvariant violations:",
          cluster.validate(None) or "none")


if __name__ == "__main__":
    main()

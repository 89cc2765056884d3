"""Parking Space Finder: the paper's motivating service at full scale.

Deploys the 2400-space database of Section 5.1 on the hierarchical
9-site architecture (Figure 6(iv)), streams webcam-style availability
updates through sensing agents, and serves the kinds of queries a
driver's navigation system would pose -- including the query-based
consistency story: coarse freshness far from the destination, strict
freshness when close.

Run:  python examples/parking_space_finder.py
"""

import random

from repro.arch import hierarchical
from repro.net import Cluster
from repro.service import (
    ParkingConfig,
    all_space_paths,
    build_parking_document,
    type1_query,
    type3_query,
)
from repro.xmlkit import serialize


class DrivingClock:
    """A controllable wall clock shared by every site."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def main():
    config = ParkingConfig.paper_small()
    document = build_parking_document(config)
    clock = DrivingClock()
    cluster = Cluster(document, hierarchical(config).plan, clock=clock)
    print(f"deployed {config.total_spaces} parking spaces over "
          f"{len(cluster.sites)} sites")

    # Sensor proxies: one SA per neighborhood's worth of webcams.
    spaces = all_space_paths(config)
    agents = []
    for index in range(0, len(spaces), 400):
        agents.append(cluster.add_sensing_agent(
            f"sa-{index // 400}", spaces[index:index + 400]))
    rng = random.Random(4)
    for _ in range(300):  # a burst of sensor readings
        agent = rng.choice(agents)
        path = rng.choice(agent.space_paths)
        agent.send_update(path, values={
            "available": "yes" if rng.random() < 0.5 else "no"})
    print("streamed 300 sensor updates through "
          f"{len(agents)} sensing agents\n")

    # --- The driver is 10 minutes out: minutes-old data is fine. -----
    clock.now = 600.0
    destination = ("Pittsburgh", "Oakland", "Shadyside")
    coarse = (
        type3_query(config, destination[0], destination[1], destination[2],
                    block="7")
        + "/parkingSpace[available='yes'][timestamp() > current-time() - 600]"
    )
    results, site, outcome = cluster.query(coarse)
    print(f"[far away] {len(results)} candidate spaces near the "
          f"Oakland/Shadyside boundary "
          f"(answered at {site}, {len(outcome.subqueries_sent)} subqueries)")

    # --- Approaching: insist on fresh data; stale caches are bypassed.
    clock.now = 900.0
    strict = (
        type3_query(config, destination[0], destination[1], destination[2],
                    block="7")
        + "/parkingSpace[available='yes'][timestamp() > current-time() - 30]"
    )
    results, site, outcome = cluster.query(strict)
    print(f"[arriving]  {len(results)} spaces confirmed fresh "
          f"({len(outcome.subqueries_sent)} owner subqueries)")

    # --- Pick the cheapest available space in the target block. ------
    cheapest = (
        type1_query(config, "Pittsburgh", "Oakland", "7")
        + "/parkingSpace[available='yes']"
          "[not(price > ../parkingSpace[available='yes']/price)]"
    )
    results, _, _ = cluster.query(cheapest)
    if results:
        print("\ncheapest available space in Oakland block 7:")
        print("  ", serialize(results[0], pretty=True).strip())

    # --- The space is taken before arrival; directions auto-update. --
    taken = results[0].id if results else "1"
    victim = next(
        p for p in spaces
        if p[4][1] == "Oakland" and p[5][1] == "7" and p[6][1] == taken)
    agents[0].send_update(victim, values={"available": "no"})
    results, _, _ = cluster.query(cheapest)
    replacement = results[0].id if results else None
    print(f"\nspace {taken} was taken; rerouting to space {replacement}")

    print("\ninvariant violations:",
          cluster.validate(None) or "none")


if __name__ == "__main__":
    main()

"""Print the traffic ledger: what each of its queries costs on the wire.

Every row of ``tests/test_traffic_ledger.py`` (the printer reads the
test's own lists) is posed three times at its first city's site, on
loopback with the clock fixed at 1000 and message ids restarted per
posing, and each posing is printed as messages / asks / KiB / wall ms.
"Asks" is ``subqueries_sent`` summed over the agents, a rollup's fold
items included.

    PYTHONPATH=src:. python benchmarks/ledger.py           # paper_small
    PYTHONPATH=src:. python benchmarks/ledger.py --tiny    # the ledger

The default is the probe table: ``ParkingConfig.paper_small()`` on nine
sites (``site-1`` holds Pittsburgh), the seven path rows and the count
row.  ``--tiny`` prints every ledger row on ``ParkingConfig.tiny()``,
the dead-owner rollups included.  Wall times are this host's, for
shape only; the counts are exact.
"""

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from repro.service import ParkingConfig  # noqa: E402
from tests import test_traffic_ledger as ledger  # noqa: E402


def rows(tiny):
    """``(name, query, dead, scalar)`` of every row to print, on the
    first city of the chosen deployment."""
    config = ParkingConfig.tiny() if tiny else ParkingConfig.paper_small()
    _city, prefix = ledger.first_city(config)
    paths = [(name, query.replace(ledger.P, prefix), False, False)
             for name, query, _costs in ledger.PATH_ROWS]
    scalars = [(name, query.replace(ledger.P, prefix), dead, True)
               for name, query, dead in ledger.ROWS
               if tiny or name == "free-count"]
    return config, paths + scalars


def pose(config, query, dead, scalar, n_sites):
    """``(value, [(messages, asks, bytes, wall s)])``: *query* posed
    :data:`~tests.test_traffic_ledger.POSINGS` times on a fresh
    cluster."""
    cluster = ledger._cluster(dead, config=config, n_sites=n_sites)
    city, _prefix = ledger.first_city(config)
    site = cluster.owner_map[city]
    if scalar:
        def answer():
            return cluster.scalar(query, at_site=site)
    else:
        def answer():
            return len(cluster.query(query, at_site=site)[0])
    walls = []
    posings = ledger._postings(cluster, answer, walls)
    return posings[0][0], [cost + (wall,) for (_value, cost), wall
                           in zip(posings, walls)]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--tiny", action="store_true",
                        help="every ledger row on ParkingConfig.tiny()")
    args = parser.parse_args(argv)
    config, table = rows(args.tiny)
    n_sites = 7 if args.tiny else 9
    print(f"{'tiny' if args.tiny else 'paper_small'}, {n_sites} sites, "
          f"posed {ledger.POSINGS} times at the first city's site: "
          "messages / asks / KiB / wall ms")
    header = ["row", "value"] + [f"posing {n + 1}"
                                 for n in range(ledger.POSINGS)]
    print("| " + " | ".join(header) + " |")
    print("|" + "---|" * len(header))
    for name, query, dead, scalar in table:
        value, costs = pose(config, query, dead, scalar, n_sites)
        cells = [f"{messages} / {asks} / {size / 1024:.1f} / "
                 f"{wall * 1000:.1f}"
                 for messages, asks, size, wall in costs]
        print(f"| {name} | {value:g} | " + " | ".join(cells) + " |")


if __name__ == "__main__":
    main()

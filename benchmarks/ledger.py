"""Print the traffic ledger: what each of its queries costs on the wire.

Every row of ``tests/test_traffic_ledger.py`` (the printer reads the
test's own lists) is posed three times at its first city's site, on
loopback with the clock fixed at 1000 and message ids restarted per
posing, and each posing is printed as messages / asks / KiB / wall ms.
"Asks" is ``subqueries_sent`` summed over the agents, a rollup's fold
items included.

    PYTHONPATH=src:. python benchmarks/ledger.py           # paper_small
    PYTHONPATH=src:. python benchmarks/ledger.py --tiny    # the ledger
    PYTHONPATH=src:. python benchmarks/ledger.py --tiny \
        --check benchmarks/ledger_tiny.md                  # and compare

The default is the probe table: ``ParkingConfig.paper_small()`` on nine
sites (``site-1`` holds Pittsburgh), the seven path rows and the count
row.  ``--tiny`` prints every ledger row on ``ParkingConfig.tiny()``,
the dead-owner rollups included.  Wall times are this host's, for
shape only; the counts are exact.

``--check FILE`` compares the printed table with *FILE*, an earlier
printing of the same table: every row's messages, asks and KiB must
match (wall ms is left out), else the script names the rows that
differ and exits 1.  ``benchmarks/ledger_tiny.md`` is the ``--tiny``
table; a change that moves traffic on purpose prints it again.
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


def traffic(lines):
    """``{row: [(messages, asks, KiB), ...]}`` of a printed table, each
    posing's cells as printed, wall ms left out."""
    costs = {}
    for line in lines:
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if not line.startswith("| ") or cells[0] == "row":
            continue
        costs[cells[0]] = [tuple(cell.split(" / ")[:3])
                           for cell in cells[2:]]
    return costs


def differences(printed, expected):
    """The rows whose traffic in *printed* differs from *expected*'s
    (both lists of lines), one line each."""
    mine, theirs = traffic(printed), traffic(expected)
    lines = []
    if printed[:1] != expected[:1]:
        lines.append(f"deployment: {printed[:1]} against {expected[:1]}")
    for name in dict.fromkeys([*theirs, *mine]):
        if mine.get(name) != theirs.get(name):
            lines.append(f"{name}: {mine.get(name)} against "
                         f"{theirs.get(name)}")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--tiny", action="store_true",
                        help="every ledger row on ParkingConfig.tiny()")
    parser.add_argument("--check", metavar="FILE",
                        help="exit 1 unless every row's messages, asks "
                             "and KiB equal FILE's")
    args = parser.parse_args(argv)
    config, table = rows(args.tiny)
    n_sites = 7 if args.tiny else 9
    header = ["row", "value"] + [f"posing {n + 1}"
                                 for n in range(ledger.POSINGS)]
    printed = [f"{'tiny' if args.tiny else 'paper_small'}, {n_sites} "
               f"sites, posed {ledger.POSINGS} times at the first city's "
               "site: messages / asks / KiB / wall ms",
               "| " + " | ".join(header) + " |",
               "|" + "---|" * len(header)]
    for line in printed:
        print(line)
    for name, query, dead, scalar in table:
        value, costs = pose(config, query, dead, scalar, n_sites)
        cells = [f"{messages} / {asks} / {size / 1024:.1f} / "
                 f"{wall * 1000:.1f}"
                 for messages, asks, size, wall in costs]
        printed.append(f"| {name} | {value:g} | " + " | ".join(cells) + " |")
        print(printed[-1])
    if args.check:
        expected = Path(args.check).read_text().splitlines()
        found = differences(printed, expected)
        for line in found:
            print(f"traffic differs from {args.check}: {line}")
        return 1 if found else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())

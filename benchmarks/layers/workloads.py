"""The workloads: seeded operation streams and the deployments they drive.

A workload is a row of :data:`WORKLOADS`: which transport carries it,
how stale a cached copy may be, how fast the logical clock runs, and how
many rounds of its stream a run poses.  The stream is generated from the
seed alone and handed to the program one operation at a time; the
program never sees the seed.
"""

import random
import threading
from dataclasses import dataclass

from repro.arch import hierarchical
from repro.net.cluster import Cluster
from repro.net.messages import AckMessage, UpdateMessage
from repro.net.tcpruntime import TcpCluster
from repro.service import (
    ParkingConfig,
    QueryWorkload,
    UpdateWorkload,
    build_parking_document,
    type4_query,
)

#: Where the logical clock starts: far enough from zero that every
#: ``current-time() - N`` bound is a positive instant.
CLOCK_START = 1000.0

QUERY_TYPES = (1, 2, 3, 4)
UPDATES_PER_TICK = 4
SCAN_EVERY = 5


@dataclass
class Workload:
    """One row of the workload table."""

    name: str
    why: str
    rounds: int                   # rounds a run poses
    transport: str = "loopback"   # or "tcp"
    tolerance: int = 5            # freshness bound of every query, s
    clock_step: float = 10.0      # logical seconds per lookup (or tick)
    warm: bool = False            # sweep every caching site at set-up
    feed: bool = False            # updates and scans beside the lookups
    quick_rounds: int = 6         # rounds of a --quick pass


#: ``rounds`` is sized on seed code so that a run's measured window takes
#: about as long as README, "Run length", says; it is the same on every
#: commit, so two commits do identical work.
WORKLOADS = {w.name: w for w in (
    Workload(
        "point_cold",
        "QW-Even whole-block lookups no cached copy is fresh enough for: "
        "every type-3/4 query is a full gather merged into the site "
        "database, on loopback, so the engine does nearly all the work",
        rounds=100,
    ),
    Workload(
        "gather_warm",
        "the point_cold questions served entirely from cached fragments "
        "after a root sweep: zero messages, so dispatch, transport and "
        "merge are bypassed and the walk over the merged fragment "
        "dominates",
        rounds=100, tolerance=600, clock_step=0.01, warm=True,
    ),
    Workload(
        "point_tcp",
        "the point_cold stream with every hop on a localhost socket: "
        "message encode/decode, serialize/parse, framing, sockets and "
        "the handler threads' shared GIL carry the difference",
        rounds=100, transport="tcp",
    ),
    Workload(
        "scan_feed",
        "4 sensor updates per tick beside a QW-Even lookup for available "
        "spaces and, every 5th tick, a neighbourhood-wide scan: a read-path "
        "gain bought with update-path cost or stale answers shows here",
        rounds=10, tolerance=30, clock_step=1.0, warm=True, feed=True,
        quick_rounds=3,
    ),
)}

#: The workloads BENCHMARK.json names, in the order a full run takes them.
BENCHMARK_WORKLOADS = ("point_cold", "gather_warm", "point_tcp", "scan_feed")


class LogicalClock:
    """The harness-owned clock every site reads."""

    def __init__(self, start=CLOCK_START):
        self._now = start

    def read(self):
        return self._now

    def advance(self, step):
        self._now += step
        return self._now


class Op:
    """One operation of a stream.

    ``kind`` is ``t1``..``t4``, ``scan`` or ``update``; ``advance`` is
    how far the logical clock moves before the operation is posed.
    """

    __slots__ = ("kind", "advance", "query", "path", "values")

    def __init__(self, kind, advance, query=None, path=None, values=None):
        self.kind = kind
        self.advance = advance
        self.query = query
        self.path = path
        self.values = values

    def describe(self):
        if self.kind == "update":
            return f"update {self.path[-3:]} <- {self.values}"
        return self.query


def _county_prefix(config):
    return (f"/usRegion[@id='{config.region}']/state[@id='{config.state}']"
            f"/county[@id='{config.county}']")


def _freshness(tolerance):
    return f"[timestamp() > current-time() - {tolerance}]"


def sweep_query(config):
    """The wildcard sweep that warms every caching site from the root."""
    return _county_prefix(config) + "/city/neighborhood/block"


def priming_query(config):
    """One unbounded type-4 query: it hands the root its cities' ID
    information.

    Until the root holds that, a freshness-bounded query through the
    root comes back empty (README, "Known seed findings"); like a cold
    DNS cache this is start-up state, so every deployment is primed.
    """
    city_a, city_b = config.city_names()[:2]
    return type4_query(config, city_a, city_b,
                       config.neighborhood_names()[0], config.block_ids()[0])


def rounds(workload, config, seed):
    """Endless generator of rounds (lists of :class:`Op`).

    Every round holds each query type equally often, in seeded order,
    so the mix is exact at any whole number of rounds and a run's
    throughput does not depend on which types the seed happened to draw.
    """
    rng = random.Random(seed)
    # Static workloads ask for whole blocks; beside a feed the lookups
    # ask for the available spaces, as a driver looking for one would.
    selection = "available" if workload.feed else "block"
    queries = {
        qtype: QueryWorkload.qw(config, qtype, selection=selection,
                                seed=rng.getrandbits(32))
        for qtype in QUERY_TYPES
    }
    suffix = _freshness(workload.tolerance)

    def lookups():
        order = list(QUERY_TYPES)
        rng.shuffle(order)
        for qtype in order:
            query, _ = queries[qtype].sample()
            yield Op(f"t{qtype}", workload.clock_step, query=query + suffix)

    if not workload.feed:
        while True:
            yield list(lookups())

    # A feed round is SCAN_EVERY shuffles of the four types: the fewest
    # ticks holding every type equally often and a whole number of scans.
    updates = UpdateWorkload(config, seed=rng.getrandbits(32))
    cities = config.city_names()
    neighborhoods = config.neighborhood_names()
    while True:
        ops = []
        tick = 0
        for _ in range(SCAN_EVERY):
            for lookup in lookups():
                tick += 1
                for index in range(UPDATES_PER_TICK):
                    path, values = updates.sample()
                    # The tick's first operation moves the clock.
                    ops.append(Op("update",
                                  workload.clock_step if index == 0 else 0.0,
                                  path=path, values=values))
                lookup.advance = 0.0
                ops.append(lookup)
                if tick % SCAN_EVERY == 0:
                    ops.append(Op("scan", 0.0, query=(
                        f"{_county_prefix(config)}"
                        f"/city[@id='{rng.choice(cities)}']"
                        f"/neighborhood[@id='{rng.choice(neighborhoods)}']"
                        f"/block/parkingSpace[available='yes']{suffix}")))
        yield ops


def document_and_plan(config):
    """The logical document and its hierarchical placement: a site per
    neighbourhood, a site per city, one for the root (9 at paper size)."""
    sites = (len(config.city_names())
             * (len(config.neighborhood_names()) + 1) + 1)
    return (build_parking_document(config),
            hierarchical(config, n_sites=sites).plan)


class Deployment:
    """One running cluster plus the three calls a client makes on it."""

    def __init__(self, workload, config, clock, count_bytes=False):
        document, plan = document_and_plan(config)
        self._tcp = None
        if workload.transport == "tcp":
            # TcpNetwork counts wire bytes by default; defaults are what
            # is measured.
            self._tcp = TcpCluster(document, plan, clock=clock.read)
            self.cluster = self._tcp.cluster
        else:
            self.cluster = Cluster(document, plan, clock=clock.read,
                                   count_bytes=count_bytes)
        self.document = document
        prime = sweep_query(config) if workload.warm else priming_query(config)
        _, _, outcome = self.cluster.query(prime, now=clock.read())
        if not outcome.complete:
            raise RuntimeError("the priming query came back incomplete")
        if workload.feed:
            # The feed starts when the swept copies have aged past the
            # bound, so the first lookup of a block costs what every
            # later one does (README, "Known seed findings", 3).
            clock.advance(workload.tolerance)

    @property
    def network(self):
        return self.cluster.network

    def query(self, query, now):
        """Pose a user query; returns ``(results, complete)``."""
        if self._tcp is not None:
            results, _site = self.cluster.query_via_messages(query, now=now)
            return results, True
        results, _site, outcome = self.cluster.query(query, now=now)
        return results, outcome.complete

    def update(self, path, values):
        """Send one sensor update to the owning site; returns success."""
        site = self.cluster.owner_map[path]
        reply = self.network.request(
            "client", site, UpdateMessage(path, values=values,
                                          sender="client"))
        return isinstance(reply, AckMessage) and reply.ok

    def close(self):
        if self._tcp is not None:
            # socketserver's shutdown() waits out a 0.5 s poll; stop the
            # accept loops together, not one after another as
            # TcpCluster.close() would.
            stoppers = [threading.Thread(target=server.shutdown)
                        for server in self._tcp.servers.values()]
            for stopper in stoppers:
                stopper.start()
            for stopper in stoppers:
                stopper.join()
            self._tcp.close()
        else:
            self.cluster.shutdown()


def parking_config(quick=False):
    return ParkingConfig.tiny() if quick else ParkingConfig.paper_small()

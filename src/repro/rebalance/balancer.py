"""The per-cluster load-balancer control loop.

One :class:`LoadBalancer` watches a whole cluster.  Each tick it

1. snapshots every agent's :class:`~repro.rebalance.tracker
   .PathLoadTracker` and diffs against the previous tick (cumulative
   counters diffed locally -- robust to frozen test clocks and to a
   site restarting with zeroed counters);
2. folds in the runtime's pressure signals when attached (admission
   sheds and queue depth from the TCP servers) -- a site refusing work
   is overloaded even if the refusals keep its served-count low;
3. detects overloaded sites against the cluster mean
   (:func:`~repro.rebalance.planner.detect_overloaded`);
4. plans fragment splits along IDable boundaries
   (:func:`~repro.rebalance.planner.plan_moves`) -- candidate units
   are owned subtrees the site can give up while keeping its
   assignment root, including the IDable children of the assignment
   itself (that is the *split*: a fragment that always moved as one
   block becomes several independently-owned pieces);
5. executes each move through ``Cluster.delegate`` -- the Section-4
   take-ownership protocol with the abort/rollback cover in
   ``OrganizingAgent.delegate`` -- and records the outcome;
6. periodically reconciles ownership against DNS: any site holding an
   OWNED path whose authoritative DNS owner is some other site demotes
   it.  DNS flips are the migration commit point, so DNS is the
   authority; reconciliation is what makes "complete or roll back"
   eventual even when both the adopt reply *and* the abort release are
   lost.

The balancer itself sends nothing on the wire; every wire effect goes
through the agents' existing protocol messages.
"""

import logging
import threading
from collections import deque

from repro.core.errors import CoreError
from repro.core.idable import id_path_of, idable_children
from repro.core.ownership import relinquish_ownership
from repro.core.status import Status, get_status
from repro.rebalance.planner import detect_overloaded, plan_moves

logger = logging.getLogger(__name__)

__all__ = ["LoadBalancer"]


class LoadBalancer:
    """Hot-spot detection and live migration for one cluster.

    The cluster-level half of the subsystem (see
    :mod:`repro.net.subsystem`): passive until :meth:`tick` (or
    :meth:`start`) is called, and it only ever acts through the agents'
    existing protocol, so merely listing a
    :class:`~repro.rebalance.RebalanceConfig` adds no wire traffic on
    an unskewed workload.
    """

    name = "rebalance"

    def __init__(self, cluster, config):
        self.cluster = cluster
        self.config = config
        self._prev = {}      # site -> {anchor path: cumulative count}
        self._prev_pressure = {}  # site -> cumulative shed count
        self._lock = threading.Lock()
        self._thread = None
        self._stop_event = None
        self._force_reconcile = False
        self.history = deque(maxlen=128)
        self.stats = {
            "ticks": 0,
            "hotspots": 0,
            "migrations_planned": 0,
            "migrations_executed": 0,
            "migrations_failed": 0,
            "paths_moved": 0,
            "reconcile_runs": 0,
            "reconciled_demotions": 0,
        }

    # ------------------------------------------------------------------
    # Signals
    # ------------------------------------------------------------------
    def cluster_started(self):
        # DNS invalidation fan-out: when a migration re-points a
        # record, drop it from every resolver cache immediately so the
        # next query routes to the new owner instead of waiting out a
        # TTL on the old one.
        self.cluster.dns.subscribe(self.cluster.invalidate_resolver_caches)

    def _tracker_deltas(self):
        """Per-site per-anchor served-query deltas since the last tick."""
        deltas = {}
        snapshots = {}
        for site, agent in self.cluster.agents.items():
            counts = agent.load.snapshot()
            snapshots[site] = counts
            previous = self._prev.get(site, {})
            delta = {}
            for path, count in counts.items():
                base = previous.get(path, 0)
                if base > count:
                    base = 0  # tracker reset (site restarted)
                if count > base:
                    delta[path] = count - base
            deltas[site] = delta
        self._prev = snapshots
        return deltas

    def _pressure_deltas(self):
        """Admission-shed deltas per site from the TCP runtime's
        servers (none on the loopback network)."""
        servers = getattr(self.cluster.runtime, "servers", None)
        if not servers:
            return {}
        deltas = {}
        current = {}
        for site, server in servers.items():
            try:
                stats = server.server_stats()
            except Exception:
                continue
            shed = stats.get("overload_rejections", 0) or 0
            current[site] = shed
            base = self._prev_pressure.get(site, 0)
            if base > shed:
                base = 0
            extra = shed - base
            # Queue depth is instantaneous, not cumulative: count it
            # directly -- a deep queue right now is pressure right now.
            extra += stats.get("queue_depth", 0) or 0
            if extra > 0:
                deltas[site] = extra
        self._prev_pressure = current
        return deltas

    # ------------------------------------------------------------------
    # Planning inputs
    # ------------------------------------------------------------------
    def _assigned_paths(self, site):
        return [path for path, owner in self.cluster.owner_map.items()
                if owner == site]

    def _split_units(self, site, path_delta):
        """Candidate migration units and their attributed loads.

        A unit is an owned IDable subtree the site can shed while
        keeping its assignment root: any non-minimal assigned path,
        plus the IDable children of each minimal assigned path (the
        fragment-split boundary).  Load attribution: a recorded anchor
        contributes to every unit that is a prefix of it -- queries
        anchored *above* every unit (at the assignment root) cannot be
        shed by splitting and stay out of the unit loads.
        """
        assigned = self._assigned_paths(site)
        if not assigned:
            return {}
        minimal = [p for p in assigned
                   if not any(q != p and p[:len(q)] == q for q in assigned)]
        units = set(assigned) - set(minimal)
        agent = self.cluster.agents.get(site)
        if agent is not None:
            for path in minimal:
                element = agent.database.find(path)
                if element is None:
                    continue
                for child in idable_children(element):
                    if get_status(child) is Status.OWNED:
                        units.add(tuple(tuple(entry) for entry in
                                        id_path_of(child)))
        unit_loads = {}
        for unit in units:
            load = sum(count for anchor, count in path_delta.items()
                       if anchor[:len(unit)] == unit)
            unit_loads[unit] = float(load)
        return unit_loads

    def _live_targets(self):
        """Sites that can adopt right now (killed sites excluded)."""
        live = set(self.cluster.agents)
        network_sites = self.cluster.network.sites
        if network_sites:  # empty: the transport does not track liveness
            live &= set(network_sites)
        return live

    # ------------------------------------------------------------------
    # The loop
    # ------------------------------------------------------------------
    def tick(self):
        """One detection/planning/execution round; returns the moves."""
        with self._lock:
            return self._tick_locked()

    def _tick_locked(self):
        self.stats["ticks"] += 1
        deltas = self._tracker_deltas()
        pressure = self._pressure_deltas()
        site_loads = {site: float(sum(delta.values()))
                      for site, delta in deltas.items()}
        for site, extra in pressure.items():
            site_loads[site] = site_loads.get(site, 0.0) + float(extra)
        hot = detect_overloaded(site_loads,
                                ratio=self.config.overload_ratio,
                                min_load=self.config.min_queries)
        self.stats["hotspots"] += len(hot)
        executed = []
        budget = self.config.max_moves_per_tick
        targets = self._live_targets()
        for site, _load in hot:
            if budget <= 0:
                break
            unit_loads = self._split_units(site, deltas.get(site, {}))
            moves = plan_moves(site, site_loads, unit_loads,
                               headroom=self.config.headroom,
                               max_moves=budget,
                               targets=targets)
            self.stats["migrations_planned"] += len(moves)
            for move in moves:
                budget -= 1
                try:
                    moved = self.cluster.delegate(move.id_path, move.target)
                except Exception as exc:
                    self.stats["migrations_failed"] += 1
                    self._force_reconcile = True
                    logger.warning("migration of %r from %r to %r failed: %s",
                                   move.id_path, move.source, move.target,
                                   exc)
                    continue
                self.stats["migrations_executed"] += 1
                self.stats["paths_moved"] += len(moved)
                self.history.append({
                    "id_path": move.id_path,
                    "source": move.source,
                    "target": move.target,
                    "load": move.load,
                })
                executed.append(move)
        if self._force_reconcile or \
                self.stats["ticks"] % self.config.reconcile_every == 0:
            self.reconcile()
            self._force_reconcile = False
        return executed

    def reconcile(self):
        """Demote owned paths whose DNS authority is another site.

        The commit point of a migration is the DNS flip, so DNS is the
        single authority on ownership.  After a double failure (adopt
        reply lost *and* abort release lost) the would-be adopter can
        be left holding OWNED paths DNS never granted it; this pass
        demotes them, restoring the one-owner invariant without any
        wire traffic.
        """
        self.stats["reconcile_runs"] += 1
        demoted = 0
        dns = self.cluster.dns
        for site, agent in list(self.cluster.agents.items()):
            database = agent.database
            for path in list(database.owned_paths()):
                authority = dns.authoritative_site(path)
                if authority is None or authority == site:
                    continue
                try:
                    relinquish_ownership(database, path)
                except CoreError:
                    continue  # an ancestor demotion already covered it
                demoted += 1
        self.stats["reconciled_demotions"] += demoted
        return demoted

    # ------------------------------------------------------------------
    # Background lifecycle
    # ------------------------------------------------------------------
    def start(self, interval=None):
        """Run ticks on a daemon thread every *interval* seconds."""
        if self._thread is not None:
            return self
        interval = self.config.interval if interval is None else interval
        self._stop_event = threading.Event()

        def loop():
            while not self._stop_event.wait(interval):
                try:
                    self.tick()
                except Exception:
                    logger.exception("rebalance tick failed")

        self._thread = threading.Thread(
            target=loop, name="rebalance-loop", daemon=True)
        self._thread.start()
        return self

    def close(self):
        """Stop the background thread (a no-op if it never started)."""
        if self._thread is None:
            return
        self._stop_event.set()
        self._thread.join(timeout=5.0)
        self._thread = None
        self._stop_event = None

    # ------------------------------------------------------------------
    def metrics(self):
        """The control loop's own counters."""
        with_history = dict(self.stats)
        with_history["history"] = len(self.history)
        with_history["running"] = 1 if self._thread is not None else 0
        return with_history

    def rollup(self, totals):
        """The cluster-wide section: the agents' summed migration
        counters plus this loop's, under ``balancer``."""
        totals["balancer"] = self.metrics()
        return totals

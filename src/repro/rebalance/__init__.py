"""Adaptive rebalancing: hot-spot detection and live fragment splitting.

The paper's Section 4 ownership-migration protocol moves a subtree
between sites atomically -- but nothing in the paper *drives* it, so a
zipf-skewed workload melts one owner while its peers idle.  This
package closes the loop:

- :class:`~repro.net.load.PathLoadTracker` (always on, in
  :mod:`repro.net`) -- per-site, per-id-path served-query counters the
  balancer reads (local, zero wire cost);
- :mod:`~repro.rebalance.planner` -- pure split-sizing and placement
  math: which subtrees leave an overloaded site, and where they go;
- :class:`~repro.rebalance.balancer.LoadBalancer` -- the per-cluster
  control loop: snapshot trackers, detect overload, plan fragment
  splits along IDable boundaries, execute live migrations through the
  Section-4 protocol + DNS re-mapping, and reconcile ownership against
  DNS after failures.

Switched on by listing a :class:`RebalanceConfig` in
``Cluster(subsystems=[...])``; both halves reach the deployment through
:mod:`repro.net.subsystem`.  Not listed, the wire and behaviour are
byte-identical to a build without the subsystem.
"""

from repro.rebalance.balancer import LoadBalancer
from repro.rebalance.config import RebalanceConfig
from repro.rebalance.planner import (
    Migration,
    detect_overloaded,
    n_new_fragments,
    plan_moves,
)
from repro.rebalance.site import SiteRebalance, migration_counters

__all__ = [
    "LoadBalancer",
    "Migration",
    "RebalanceConfig",
    "SiteRebalance",
    "detect_overloaded",
    "migration_counters",
    "n_new_fragments",
    "plan_moves",
]

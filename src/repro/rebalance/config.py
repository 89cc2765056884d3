"""Configuration for the adaptive rebalancer."""

from repro.rebalance.balancer import LoadBalancer
from repro.rebalance.site import SiteRebalance


class RebalanceConfig:
    """Tuning knobs for the load balancer.

    Pass it in ``Cluster(subsystems=[...])`` to switch the balancer on;
    not passing it leaves wire and behaviour byte-identical to a build
    without the subsystem.

    ``overload_ratio``
        a site is *overloaded* when its served-query delta for the
        tick exceeds ``overload_ratio`` times the cluster mean;
    ``min_queries``
        noise floor: a site under this many queries per tick is never
        overloaded, whatever the ratio says (protects tiny clusters
        and idle periods from jittery migrations);
    ``headroom``
        target capacity multiplier: splits are sized so the hot site's
        projected load drops to ``headroom`` times the cluster mean,
        not all the way to the mean (hysteresis against ping-ponging);
    ``max_moves_per_tick``
        upper bound on migrations one tick may execute -- rebalancing
        is supposed to converge over a few ticks, not thrash;
    ``interval``
        seconds between ticks when the balancer runs its own
        background thread (:meth:`LoadBalancer.start`);
    ``adopt_attempts``
        wire retries for the adopt exchange during one migration
        (adoption is idempotent, so retrying a reset is safe);
    ``reconcile_every``
        run the DNS-authority ownership reconciliation pass every this
        many ticks (it walks every owned path, so at million-node
        scale it should not run on every tick); a failed migration
        forces it on the next tick regardless.
    """

    name = "rebalance"

    def __init__(self, overload_ratio=2.0, min_queries=16,
                 headroom=1.25, max_moves_per_tick=4, interval=1.0,
                 adopt_attempts=3, reconcile_every=8):
        if overload_ratio < 1.0:
            raise ValueError("overload_ratio must be >= 1")
        if headroom < 1.0:
            raise ValueError("headroom must be >= 1")
        if max_moves_per_tick < 1:
            raise ValueError("max_moves_per_tick must be >= 1")
        if adopt_attempts < 1:
            raise ValueError("adopt_attempts must be >= 1")
        if reconcile_every < 1:
            raise ValueError("reconcile_every must be >= 1")
        self.overload_ratio = overload_ratio
        self.min_queries = min_queries
        self.headroom = headroom
        self.max_moves_per_tick = max_moves_per_tick
        self.interval = interval
        self.adopt_attempts = adopt_attempts
        self.reconcile_every = reconcile_every

    def site_subsystem(self, agent):
        return SiteRebalance(agent, self)

    def cluster_subsystem(self, cluster):
        return LoadBalancer(cluster, self)

    def __repr__(self):
        return (f"RebalanceConfig("
                f"overload_ratio={self.overload_ratio}, "
                f"min_queries={self.min_queries}, "
                f"headroom={self.headroom}, "
                f"max_moves_per_tick={self.max_moves_per_tick})")

"""Scale scenarios: parameterized wide-area sensor deployments.

The paper's motivating numbers are big -- "a million links" for the
traffic service, tens of thousands of webcams along a coastline --
while the worked examples stay four-sites small.  This module closes
that gap with a generator for *deployment* documents of any size::

    deployment > zone^depth > sensor > value

``fanout`` zones per level, ``depth`` zone levels, ``sensors_per_group``
sensors under each leaf zone: ``ScenarioConfig(fanout=8, depth=3,
sensors_per_group=1000)`` is ~1.02M elements.  :func:`build_plan`
partitions the tree over dozens of sites (every zone prefix down to
``site_depth`` becomes an organizing agent), and
:func:`update_stream` drives it with a zipf-skewed update mix -- the
few-hot/many-cold distribution sensor traffic actually has.

Paths are computed arithmetically from sensor indices
(:func:`sensor_path`), so a million-sensor stream never materializes a
million-entry list.
"""

import bisect
import random

from repro.core.partition import PartitionPlan
from repro.xmlkit.nodes import Element

__all__ = [
    "ScenarioConfig",
    "ScenarioWorkload",
    "build_document",
    "build_plan",
    "group_path",
    "million_config",
    "quick_config",
    "rollup_query",
    "sensor_path",
    "update_stream",
]


class ScenarioConfig:
    """Shape of one generated deployment.

    ``fanout``
        zones per interior level;
    ``depth``
        zone levels between the root and the sensors (``depth=0`` puts
        sensors directly under the root);
    ``sensors_per_group``
        sensors under each leaf zone;
    ``site_depth``
        zone levels that get their own organizing agent (0 = a single
        site owns everything; 1 = root + ``fanout`` sites; 2 adds
        ``fanout**2`` more, ...);
    ``zipf_s``
        skew exponent for :func:`update_stream` (0 = uniform);
    ``seed``
        value/stream randomness.
    """

    def __init__(self, fanout=4, depth=2, sensors_per_group=8,
                 site_depth=1, zipf_s=1.1, seed=11, root_id="wide"):
        if depth < 0 or fanout < 1 or sensors_per_group < 1:
            raise ValueError("scenario dimensions must be positive")
        if site_depth > depth:
            raise ValueError("site_depth cannot exceed depth")
        self.fanout = fanout
        self.depth = depth
        self.sensors_per_group = sensors_per_group
        self.site_depth = site_depth
        self.zipf_s = zipf_s
        self.seed = seed
        self.root_id = root_id

    @property
    def group_count(self):
        return self.fanout ** self.depth

    @property
    def sensor_count(self):
        return self.group_count * self.sensors_per_group

    @property
    def element_count(self):
        """Total document elements (root + zones + sensor/value pairs)."""
        zones = sum(self.fanout ** level
                    for level in range(1, self.depth + 1))
        return 1 + zones + 2 * self.sensor_count

    @property
    def site_count(self):
        return 1 + sum(self.fanout ** level
                       for level in range(1, self.site_depth + 1))

    def __repr__(self):
        return (f"ScenarioConfig(fanout={self.fanout}, depth={self.depth}, "
                f"sensors_per_group={self.sensors_per_group}, "
                f"~{self.element_count} elements, "
                f"{self.site_count} sites)")


def quick_config(**overrides):
    """A seconds-scale config for smoke tests (~100 elements, 4 sites)."""
    params = dict(fanout=3, depth=2, sensors_per_group=4, site_depth=1)
    params.update(overrides)
    return ScenarioConfig(**params)


def million_config(**overrides):
    """The acceptance-scale config: ~1.02M elements over 73 sites."""
    params = dict(fanout=8, depth=3, sensors_per_group=1000, site_depth=2)
    params.update(overrides)
    return ScenarioConfig(**params)


# ----------------------------------------------------------------------
# Paths, computed -- never stored
# ----------------------------------------------------------------------
def _zone_digits(config, group_index):
    """*group_index* as ``depth`` base-``fanout`` digits, most
    significant first."""
    digits = []
    for _ in range(config.depth):
        digits.append(group_index % config.fanout)
        group_index //= config.fanout
    return tuple(reversed(digits))


def group_path(config, group_index):
    """The id path of leaf zone *group_index* (row-major order)."""
    path = [("deployment", config.root_id)]
    for digit in _zone_digits(config, group_index):
        path.append(("zone", f"z{digit}"))
    return tuple(path)


def sensor_path(config, sensor_index):
    """The id path of sensor *sensor_index* (grouped row-major)."""
    group_index, offset = divmod(sensor_index, config.sensors_per_group)
    return group_path(config, group_index) + (("sensor", f"s{offset}"),)


# ----------------------------------------------------------------------
# Document and partition plan
# ----------------------------------------------------------------------
def build_document(config=None):
    """Generate the deployment document (values seeded, reproducible)."""
    config = config or ScenarioConfig()
    rng = random.Random(config.seed)
    root = Element("deployment", attrib={"id": config.root_id})

    def grow(parent, level):
        if level == config.depth:
            for offset in range(config.sensors_per_group):
                sensor = Element("sensor", attrib={"id": f"s{offset}"})
                sensor.append(Element(
                    "value", text=f"{rng.uniform(0.0, 100.0):.2f}"))
                parent.append(sensor)
            return
        for digit in range(config.fanout):
            zone = Element("zone", attrib={"id": f"z{digit}"})
            parent.append(zone)
            grow(zone, level + 1)

    grow(root, 0)
    return root


def site_name(prefix_digits):
    """The organizing agent owning the zone prefix *prefix_digits*."""
    if not prefix_digits:
        return "root"
    return "oa-" + "-".join(f"z{digit}" for digit in prefix_digits)


def build_plan(config=None):
    """Partition ownership: one site per zone prefix to ``site_depth``."""
    config = config or ScenarioConfig()
    assignments = {"root": [(("deployment", config.root_id),)]}

    def assign(prefix_digits):
        if len(prefix_digits) >= config.site_depth:
            return
        for digit in range(config.fanout):
            child = prefix_digits + (digit,)
            path = [("deployment", config.root_id)]
            path.extend(("zone", f"z{d}") for d in child)
            assignments[site_name(child)] = [tuple(path)]
            assign(child)

    assign(())
    return PartitionPlan(assignments)


# ----------------------------------------------------------------------
# Zipf-skewed update stream
# ----------------------------------------------------------------------
def update_stream(config, count, seed=None):
    """Yield *count* ``(id_path, values)`` sensor updates.

    Sensor ranks are zipf-weighted (``1/(rank+1)**zipf_s``): a handful
    of sensors absorb most updates while the long tail stays cold --
    the skew Figure 8's experiments build in by hand.  Rank order is a
    seeded shuffle of sensor indices, so hot sensors scatter across
    groups (and therefore across sites) instead of clustering in the
    first one.
    """
    rng = random.Random(config.seed if seed is None else seed)
    n = config.sensor_count
    order = list(range(n))
    rng.shuffle(order)
    cumulative = []
    total = 0.0
    for rank in range(n):
        total += 1.0 / float(rank + 1) ** config.zipf_s
        cumulative.append(total)
    for _ in range(count):
        rank = bisect.bisect_left(cumulative, rng.random() * total)
        index = order[min(rank, n - 1)]
        yield sensor_path(config, index), \
            {"value": f"{rng.uniform(0.0, 100.0):.2f}"}


# ----------------------------------------------------------------------
# Open-loop workload adapter
# ----------------------------------------------------------------------
class ScenarioWorkload:
    """Open-loop arrivals for a generated deployment.

    The sample shapes match what
    :func:`~repro.service.workload.run_open_loop` routes: a
    ``(query, "aggregate")`` pair fires a user query at the
    DNS-resolved site, an ``(id_path, values)`` pair fires an update at
    the owner.  *skew* is the fraction of queries pinned under the hot
    top-level zone; each such query targets a uniformly-chosen *child*
    zone of it, so the hot site's load is attributed across several
    IDable units -- the shape a fragment split can actually spread
    (an all-one-unit hot spot is correctly refused by the planner).
    The remaining queries pick their top-level zone uniformly.
    *pin_depth* is how many zone digits a skewed query pins (default:
    2 levels when the config has them) -- deeper pins mean smaller,
    cheaper rollups, which is what keeps query cost sane on the
    million-element configs.  *update_fraction* mixes in zipf-skewed
    sensor updates from :func:`update_stream`.
    """

    def __init__(self, config, shape="avg", hot_zone=0, skew=0.8,
                 bound=None, update_fraction=0.0, pin_depth=None,
                 seed=None):
        if not 0.0 <= skew <= 1.0:
            raise ValueError("skew must be in [0, 1]")
        if not 0.0 <= update_fraction <= 1.0:
            raise ValueError("update_fraction must be in [0, 1]")
        if hot_zone >= config.fanout:
            raise ValueError("hot_zone exceeds the fanout")
        if pin_depth is None:
            pin_depth = min(config.depth, 2)
        if not 0 <= pin_depth <= config.depth:
            raise ValueError("pin_depth must be in [0, depth]")
        self.config = config
        self.shape = shape
        self.hot_zone = hot_zone
        self.skew = skew
        self.bound = bound
        self.update_fraction = update_fraction
        self.pin_depth = pin_depth
        self.rng = random.Random(config.seed if seed is None else seed)
        self._updates = None

    def _next_update(self):
        if self._updates is None:
            # One endless stream: its zipf table is built exactly once
            # (it is O(sensor_count), noticeable at the million scale).
            self._updates = update_stream(
                self.config, count=1 << 62,
                seed=self.rng.randrange(2 ** 31))
        return next(self._updates)

    def sample(self):
        if self.update_fraction and \
                self.rng.random() < self.update_fraction:
            return self._next_update()
        config = self.config
        if self.pin_depth == 0:
            zone = ()
        elif self.rng.random() < self.skew:
            zone = (self.hot_zone,) + tuple(
                self.rng.randrange(config.fanout)
                for _ in range(self.pin_depth - 1))
        else:
            zone = (self.rng.randrange(config.fanout),) + tuple(
                self.rng.randrange(config.fanout)
                for _ in range(self.pin_depth - 1))
        query = rollup_query(config, shape=self.shape, zone=zone,
                             bound=self.bound)
        return query, "aggregate"

    def __call__(self):
        return self.sample()

    def take(self, count):
        return [self.sample() for _ in range(count)]


# ----------------------------------------------------------------------
# Queries
# ----------------------------------------------------------------------
def rollup_query(config, shape="avg", zone=None, bound=None):
    """An aggregate over every sensor value under *zone* (or the root).

    *zone* is a tuple of zone digits pinning a subtree (``(0, 1)`` =
    ``/zone[@id='z0']/zone[@id='z1']``); *bound* adds a freshness
    predicate (seconds) on the final step -- the spelling the rollup
    algebra accepts.
    """
    zone = tuple(zone or ())
    steps = [f"/deployment[@id='{config.root_id}']"]
    for digit in zone:
        steps.append(f"/zone[@id='z{digit}']")
    steps.extend("/zone" for _ in range(config.depth - len(zone)))
    steps.append("/sensor")
    last = "/value"
    if bound is not None:
        last += f"[timestamp() > current-time() - {bound:g}]"
    steps.append(last)
    return f"{shape}({''.join(steps)})"

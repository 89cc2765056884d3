"""Split planning: pure math, no cluster objects.

Two layers:

- :func:`n_new_fragments` -- the split-sizing primitive, shaped like
  partitioned-table capacity planning ("given the load I have and the
  load headed my way, how many fragment-sized chunks must leave so the
  remainder fits under capacity?").  Pure, total over its domain, and
  property-tested.
- :func:`detect_overloaded` / :func:`plan_moves` -- the policy layer:
  which sites are hot relative to the cluster, which owned subtrees
  (IDable boundaries only) should move, and to which underloaded
  peers.  Both take plain dicts so the test suite can drive them
  without building clusters.
"""

import math
import sys

from repro.core.idable import id_paths_overlap

__all__ = [
    "Migration",
    "detect_overloaded",
    "n_new_fragments",
    "plan_moves",
]


def n_new_fragments(current_load, capacity, incoming_load=0.0,
                    fragment_load=None):
    """How many fragment-sized chunks must leave an overloaded site.

    ``overflow = (current_load + incoming_load) - capacity``; when it
    is positive, ``ceil(overflow / fragment_load)`` fragments of
    average load *fragment_load* have to move for the remainder to fit
    under *capacity*.  Zero when the site already fits.  A fragment
    load so small that the quotient is not a finite float (a denormal
    mean against a real overflow) saturates at ``sys.maxsize``: no
    number of such fragments fits in a plan, and callers clamp to their
    move budget.
    """
    if capacity <= 0:
        raise ValueError("capacity must be positive")
    if fragment_load is None:
        fragment_load = capacity
    if fragment_load <= 0:
        raise ValueError("fragment_load must be positive")
    overflow = (float(current_load) + float(incoming_load)) - float(capacity)
    if overflow <= 0:
        return 0
    needed = overflow / float(fragment_load)
    if not math.isfinite(needed):
        return sys.maxsize
    return int(math.ceil(needed))


def detect_overloaded(site_loads, ratio=2.0, min_load=16):
    """Sites whose load stands out against the cluster mean.

    Returns ``[(site, load), ...]`` hottest first.  A site qualifies
    when its load is at least *min_load* (noise floor) and exceeds
    *ratio* times the mean over **all** sites -- which makes a
    single-site cluster never overloaded (its load *is* the mean), and
    a perfectly balanced cluster stable at any volume.
    """
    if not site_loads:
        return []
    mean = sum(site_loads.values()) / float(len(site_loads))
    hot = [
        (site, load)
        for site, load in site_loads.items()
        if load >= min_load and load > ratio * mean
    ]
    hot.sort(key=lambda entry: (-entry[1], entry[0]))
    return hot


class Migration:
    """One planned subtree move."""

    __slots__ = ("id_path", "source", "target", "load")

    def __init__(self, id_path, source, target, load):
        self.id_path = tuple(tuple(entry) for entry in id_path)
        self.source = source
        self.target = target
        self.load = float(load)

    def __repr__(self):
        path = "/".join(f"{tag}={ident}" for tag, ident in self.id_path)
        return (f"Migration({path!r}: {self.source!r} -> {self.target!r}, "
                f"load={self.load:g})")

    def __eq__(self, other):
        return (isinstance(other, Migration)
                and self.id_path == other.id_path
                and self.source == other.source
                and self.target == other.target)


def plan_moves(site, site_loads, unit_loads, headroom=1.25,
               max_moves=4, targets=None):
    """Plan subtree migrations away from overloaded *site*.

    *site_loads* maps every site to its load this tick; *unit_loads*
    maps each candidate migration unit (an IDable subtree the hot site
    could give up without surrendering its whole assignment) to the
    load attributed to it.  Returns a list of :class:`Migration`,
    hottest units first, assigned greedily to the least-loaded peers.

    Invariants the property tests pin down:

    - never plans more than *max_moves* moves, and never more than
      :func:`n_new_fragments` says are needed (fragment-sized at the
      mean positive unit load);
    - chosen units never overlap (no unit is an ancestor or descendant
      of another chosen unit);
    - every target had strictly less load than the source at plan
      time, and a move is only planned while the source remains over
      its capacity target (``headroom`` x cluster mean).
    """
    if site not in site_loads:
        raise ValueError(f"unknown site {site!r}")
    others = [s for s in (targets if targets is not None else site_loads)
              if s != site and s in site_loads]
    if not others:
        return []
    mean = sum(site_loads.values()) / float(len(site_loads))
    capacity = max(headroom * mean, 1.0)
    positive = {path: load for path, load in unit_loads.items() if load > 0}
    if not positive:
        return []
    fragment_load = sum(positive.values()) / float(len(positive))
    budget = n_new_fragments(site_loads[site], capacity,
                             fragment_load=fragment_load)
    budget = min(budget, max_moves)
    if budget <= 0:
        return []

    running = dict(site_loads)
    chosen = []
    moves = []
    units = sorted(positive.items(), key=lambda entry: (-entry[1],
                                                        repr(entry[0])))
    for path, load in units:
        if len(moves) >= budget:
            break
        if running[site] <= capacity:
            break
        if any(id_paths_overlap(path, c) for c in chosen):
            continue
        target = min(others, key=lambda s: (running[s], s))
        # A move must improve the imbalance, not just relocate it.
        if running[target] + load >= running[site]:
            continue
        moves.append(Migration(path, site, target, load))
        chosen.append(path)
        running[site] -= load
        running[target] += load
    return moves

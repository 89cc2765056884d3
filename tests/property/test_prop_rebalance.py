"""Property: split planning is safe for any load shape.

The planner's math is pure, so hypothesis can push on the invariants
directly: the lightcurvedb-style overflow sizing returns at least one
new fragment exactly when the load overflows capacity; a plan never
exceeds its move budget, never picks overlapping units (a unit and its
own subtree cannot both migrate), never targets the hot site itself,
and every move strictly improves on the source's running load -- so a
tick can shuffle ownership around but never make the hot spot hotter.
"""

import math

from hypothesis import example, given, settings, strategies as st

from repro.rebalance import detect_overloaded, n_new_fragments, plan_moves

loads = st.floats(min_value=0.0, max_value=10_000.0,
                  allow_nan=False, allow_infinity=False)
capacities = st.floats(min_value=0.5, max_value=5_000.0,
                       allow_nan=False, allow_infinity=False)

SITES = ("s0", "s1", "s2", "s3", "s4")

#: IDable units under one deployment: parents and children mixed in,
#: so overlap handling is always exercised.
UNITS = (
    (("zone", "z0"),),
    (("zone", "z0"), ("group", "g0")),
    (("zone", "z0"), ("group", "g1")),
    (("zone", "z1"),),
    (("zone", "z1"), ("group", "g0")),
    (("zone", "z2"),),
)


class TestFragmentSizing:
    """The SNIPPETS §3 shape: >=1 new fragment iff overflowing."""

    @given(current=loads, incoming=loads, capacity=capacities)
    def test_at_least_one_iff_overflowing(self, current, incoming,
                                          capacity):
        n = n_new_fragments(current, capacity, incoming_load=incoming)
        if current + incoming > capacity:
            assert n >= 1
        else:
            assert n == 0

    @given(current=loads, incoming=loads, capacity=capacities,
           fragment=capacities)
    def test_count_covers_the_overflow(self, current, incoming,
                                       capacity, fragment):
        n = n_new_fragments(current, capacity, incoming_load=incoming,
                            fragment_load=fragment)
        overflow = (current + incoming) - capacity
        if overflow > 0:
            assert n == math.ceil(overflow / fragment)
            assert n * fragment >= overflow

    def test_rejects_degenerate_capacity(self):
        import pytest

        with pytest.raises(ValueError):
            n_new_fragments(10.0, 0.0)
        with pytest.raises(ValueError):
            n_new_fragments(10.0, 5.0, fragment_load=0.0)


class TestDetection:
    @given(site_loads=st.dictionaries(st.sampled_from(SITES), loads,
                                      min_size=2))
    def test_hot_sites_exceed_ratio_times_mean(self, site_loads):
        mean = sum(site_loads.values()) / len(site_loads)
        hot = detect_overloaded(site_loads, ratio=2.0, min_load=16)
        for site, load in hot:
            assert load >= 16
            assert load > 2.0 * mean
        # Hottest first.
        assert [load for _, load in hot] == \
            sorted((load for _, load in hot), reverse=True)

    @given(load=loads)
    def test_single_site_never_hot(self, load):
        assert detect_overloaded({"only": load},
                                 ratio=2.0, min_load=0) == []


#: Loads the planner meets are query counts over a window (possibly
#: decayed): zero, or at least a hundredth of a query -- never a
#: denormal.
planned_loads = st.one_of(
    st.just(0.0),
    st.floats(min_value=0.01, max_value=10_000.0,
              allow_nan=False, allow_infinity=False))


@st.composite
def planning_inputs(draw):
    site_loads = {site: draw(planned_loads) for site in SITES}
    unit_loads = {
        unit: draw(planned_loads)
        for unit in draw(st.sets(st.sampled_from(UNITS), min_size=1))
    }
    source = draw(st.sampled_from(SITES))
    # The source's load should dominate its units (they are a
    # breakdown of it); lift it when the draw undercuts the sum.
    site_loads[source] = max(site_loads[source],
                             sum(unit_loads.values()))
    max_moves = draw(st.integers(min_value=1, max_value=4))
    return source, site_loads, unit_loads, max_moves


class TestPlanInvariants:
    @settings(max_examples=200)
    @given(inputs=planning_inputs())
    def test_plan_is_safe(self, inputs):
        source, site_loads, unit_loads, max_moves = inputs
        moves = plan_moves(source, site_loads, unit_loads,
                           max_moves=max_moves)
        assert len(moves) <= max_moves
        chosen = [move.id_path for move in moves]
        # No overlapping units: a unit and its own subtree cannot both
        # migrate (the deeper one would be torn from the shallower).
        for i, a in enumerate(chosen):
            for b in chosen[i + 1:]:
                assert a[:len(b)] != b and b[:len(a)] != a
        running = dict(site_loads)
        for move in moves:
            assert move.source == source
            assert move.target != source
            assert move.id_path in unit_loads
            # Strict improvement at execution order: the target ends
            # up below where the source stood.
            assert running[move.target] + move.load < running[source]
            running[move.target] += move.load
            running[source] -= move.load

    @settings(max_examples=200)
    @given(inputs=planning_inputs())
    def test_targets_honour_live_set(self, inputs):
        source, site_loads, unit_loads, max_moves = inputs
        live = {source, "s1"}
        moves = plan_moves(source, site_loads, unit_loads,
                           max_moves=max_moves, targets=live)
        assert all(move.target == "s1" for move in moves)

    @given(inputs=planning_inputs())
    # A denormal mean unit load once made the move budget ceil(inf).
    @example(inputs=("s0",
                     {"s0": 100.0, "s1": 0.0, "s2": 0.0, "s3": 0.0,
                      "s4": 0.0},
                     {UNITS[0]: 5e-324}, 1))
    def test_plan_is_deterministic(self, inputs):
        source, site_loads, unit_loads, max_moves = inputs
        first = plan_moves(source, site_loads, unit_loads,
                           max_moves=max_moves)
        second = plan_moves(source, site_loads, unit_loads,
                            max_moves=max_moves)
        assert first == second

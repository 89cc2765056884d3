"""Concurrent clients: every answer is the oracle's, and nothing hangs.

Four threads pose random queries -- flat and nested -- at random sites
of a random nested ownership plan, all at once, under both the serial
and the threaded executor.  Asks travel up and down the plan, so two
threads' chains meet at each other's sites; each site's guard must
keep its local phases apart without ever being held across a wait on
another site.  Every answer must equal the centralized evaluation, the
storage invariants must hold afterwards, and every thread must finish.
"""

import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.net import Cluster, OAConfig
from tests.property.test_prop_distributed import (
    _SITES,
    _normalized,
    hierarchical_documents,
    nested_queries,
    partitions,
    queries,
    reference_answer,
)

CLIENTS = 4
#: Seconds a client may take before the run counts as hung.
HANG_S = 60


@st.composite
def concurrent_scenarios(draw):
    """A document, a plan, and per client a list of (query, site)."""
    document = draw(hierarchical_documents())
    plan = draw(partitions(document))
    ask = st.tuples(st.one_of(queries(document), nested_queries(document)),
                    st.integers(0, len(_SITES) - 1))
    shares = [draw(st.lists(ask, min_size=1, max_size=4))
              for _ in range(CLIENTS)]
    return document, plan, shares


@pytest.mark.parametrize("executor", ["serial", "threaded"])
@given(scenario=concurrent_scenarios())
@settings(max_examples=30, deadline=None)
def test_concurrent_clients_get_the_oracle_answer(executor, scenario):
    document, plan, shares = scenario
    cluster = Cluster(document.copy(), plan, service="prop",
                      oa_config=OAConfig(executor=executor))
    sites = sorted(cluster.sites)
    answers = []
    errors = []

    def client(share):
        try:
            for query, site in share:
                results, _, _ = cluster.query(
                    query, at_site=sites[site % len(sites)])
                answers.append(
                    (query, sorted(_normalized(r) for r in results)))
        except Exception as exc:  # surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=client, args=(share,), daemon=True)
               for share in shares]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(HANG_S)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads), "hung"
    assert errors == []
    assert len(answers) == sum(len(share) for share in shares)
    for query, answer in answers:
        assert answer == reference_answer(document, query), query
    assert cluster.validate(document) == []

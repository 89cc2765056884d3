"""End to end: the linear answer builder against the seed's, byte for byte.

The ``point_cold`` and ``scan_feed`` query shapes of ``benchmarks/layers``
(QW-Even lookups behind a freshness bound; a swept, aged deployment fed
with sensor updates, lookups for available spaces and neighbourhood
scans) are posed to a ``paper_small`` hierarchical cluster twice: once
with the seed's builder monkeypatched in wherever the engine binds
``AnswerBuilder`` -- that run produces the expected bytes -- and once
with the engine as it is.  Every user answer and every site database
must serialize identically.  ``SerialExecutor`` makes both runs
deterministic.
"""

import random

import repro.core.answer
import repro.core.ownership
import repro.core.qeg
from repro.arch import hierarchical
from repro.core import render_id_path_query
from repro.net import Cluster, OAConfig
from repro.net.messages import UpdateMessage
from repro.service import (
    ParkingConfig,
    QueryWorkload,
    UpdateWorkload,
    build_parking_document,
    city_path,
    neighborhood_path,
    type4_query,
)
from repro.xmlkit import serialize

from tests.property.test_prop_answer_builder import ReferenceAnswerBuilder

#: Every module that binds ``AnswerBuilder`` by name (replication's
#: pushes are built by ``repro.core.ownership``'s exporter).
_BINDINGS = (repro.core.answer, repro.core.qeg, repro.core.ownership)
_CLOCK_START = 1000.0


def _fresh(seconds):
    return f"[timestamp() > current-time() - {seconds}]"


def _point_cold(config, rng):
    """Prime, then two rounds of the four QW-Even types, 10 s apart."""
    city_a, city_b = config.city_names()[:2]
    yield 0.0, type4_query(config, city_a, city_b,
                           config.neighborhood_names()[0],
                           config.block_ids()[0])
    workloads = {qtype: QueryWorkload.qw(config, qtype, selection="block",
                                         seed=rng.getrandbits(32))
                 for qtype in (1, 2, 3, 4)}
    for _ in range(2):
        for qtype in rng.sample((1, 2, 3, 4), 4):
            yield 10.0, workloads[qtype].sample()[0] + _fresh(5)


def _scan_feed(config, rng):
    """Sweep, age the copies past the bound, then 8 ticks of 4 updates
    and a lookup for available spaces, a neighbourhood scan every 4th."""
    county = city_path(config, config.city_names()[0])[:-1]
    yield 0.0, render_id_path_query(county) + "/city/neighborhood/block"
    workloads = {qtype: QueryWorkload.qw(config, qtype,
                                         selection="available",
                                         seed=rng.getrandbits(32))
                 for qtype in (1, 2, 3, 4)}
    updates = UpdateWorkload(config, seed=rng.getrandbits(32))
    advance = 30.0
    for tick in range(8):
        for _ in range(4):
            yield advance, updates.sample()
            advance = 0.0
        yield 0.0, workloads[tick % 4 + 1].sample()[0] + _fresh(30)
        if tick % 4 == 3:
            scanned = neighborhood_path(
                config, rng.choice(config.city_names()),
                rng.choice(config.neighborhood_names()))
            yield 0.0, (render_id_path_query(scanned)
                        + "/block/parkingSpace[available='yes']"
                        + _fresh(30))
        advance = 1.0


def _drive(stream):
    """Pose *stream* to a fresh deployment; returns what came back and
    what every site holds afterwards, serialized."""
    config = ParkingConfig.paper_small()
    now = [_CLOCK_START]
    cluster = Cluster(build_parking_document(config),
                      hierarchical(config).plan, clock=lambda: now[0],
                      oa_config=OAConfig(executor="serial"))
    answers = []
    for advance, op in stream(config, random.Random(15)):
        now[0] += advance
        if isinstance(op, str):
            results, site, outcome = cluster.query(op, now=now[0])
            answers.append((op, site, outcome.complete,
                            [serialize(node) for node in results]))
        else:
            path, values = op
            reply = cluster.network.request(
                "client", cluster.owner_map[path],
                UpdateMessage(path, values=values, sender="client"))
            assert reply.ok
    databases = {site: serialize(cluster.database(site).root,
                                 use_cache=False)
                 for site in cluster.sites}
    cluster.shutdown()
    return answers, databases


def _assert_parity(stream, monkeypatch):
    with monkeypatch.context() as patch:
        for module in _BINDINGS:
            patch.setattr(module, "AnswerBuilder", ReferenceAnswerBuilder)
        expected_answers, expected_databases = _drive(stream)
    assert repro.core.qeg.AnswerBuilder is repro.core.answer.AnswerBuilder
    assert repro.core.qeg.AnswerBuilder is not ReferenceAnswerBuilder
    answers, databases = _drive(stream)
    assert any(results for _, _, _, results in expected_answers)
    assert answers == expected_answers
    assert databases == expected_databases


def test_point_cold_shapes_match_the_seed_builder(monkeypatch):
    _assert_parity(_point_cold, monkeypatch)


def test_scan_feed_shapes_match_the_seed_builder(monkeypatch):
    _assert_parity(_scan_feed, monkeypatch)

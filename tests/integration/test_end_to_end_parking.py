"""End-to-end integration tests on the paper-scale parking service."""

import pytest

from repro.arch import hierarchical
from repro.net import Cluster, OAConfig
from repro.service import (
    ParkingConfig,
    QueryWorkload,
    UpdateWorkload,
    all_space_paths,
    build_parking_document,
    type1_query,
    type3_query,
)
from repro.xmlkit import canonical_form
from repro.xpath import compile_xpath


@pytest.fixture(scope="module")
def deployment():
    config = ParkingConfig.paper_small()
    document = build_parking_document(config)
    cluster = Cluster(document.copy(), hierarchical(config).plan)
    return config, document, cluster


def _normalized(element):
    """Canonical form modulo data timestamps (which only the
    distributed system attaches; they are queryable, not content)."""
    clone = element.copy()
    for node in clone.iter():
        node.delete_attribute("timestamp")
    return canonical_form(clone)


def reference_answer(document, query):
    """Ground truth: evaluate directly over the global document."""
    from repro.core.consistency import strip_consistency_predicates
    from repro.xpath import parse
    from repro.xpath.evaluator import Evaluator

    ast = strip_consistency_predicates(parse(query))
    matches = Evaluator().evaluate(ast, document, now=0.0)
    return sorted(_normalized(m) for m in matches)


def cluster_answer(cluster, query, at_site=None):
    results, _site, _outcome = cluster.query(query, at_site=at_site)
    return sorted(_normalized(r) for r in results)


class TestDistributedEqualsCentralized:
    def test_all_workload_types(self, deployment):
        config, document, cluster = deployment
        workload = QueryWorkload.qw_mix(config, seed=11)
        for query, _qtype in workload.take(60):
            assert cluster_answer(cluster, query) == \
                reference_answer(document, query), query

    def test_available_space_selections(self, deployment):
        config, document, cluster = deployment
        workload = QueryWorkload.qw_mix(config, selection="available",
                                        seed=12)
        for query, _qtype in workload.take(30):
            assert cluster_answer(cluster, query) == \
                reference_answer(document, query), query

    def test_descendant_query(self, deployment):
        config, document, cluster = deployment
        query = ("/usRegion[@id='NE']/state[@id='PA']/county[@id='Allegheny']"
                 "/city[@id='Pittsburgh']/neighborhood[@id='Oakland']"
                 "//parkingSpace[price='0'][available='yes']")
        assert cluster_answer(cluster, query) == \
            reference_answer(document, query)

    def test_queries_from_every_entry_point(self, deployment):
        config, document, cluster = deployment
        query = type3_query(config, "Pittsburgh", "Oakland", "Shadyside", "7")
        expected = reference_answer(document, query)
        for site in cluster.sites:
            assert cluster_answer(cluster, query, at_site=site) == expected

    def test_nested_depth_query(self, deployment):
        config, document, cluster = deployment
        query = ("/usRegion[@id='NE']/state[@id='PA']/county[@id='Allegheny']"
                 "/city[@id='Pittsburgh']/neighborhood[@id='Oakland']"
                 "/block[@id='3']"
                 "/parkingSpace[not(price > ../parkingSpace/price)]")
        assert cluster_answer(cluster, query) == \
            reference_answer(document, query)

    def test_scalar_aggregates_match(self, deployment):
        config, document, cluster = deployment
        query = ("count(/usRegion[@id='NE']/state[@id='PA']"
                 "/county[@id='Allegheny']/city[@id='Pittsburgh']"
                 "/neighborhood[@id='Shadyside']"
                 "//parkingSpace[available='yes'])")
        expected = compile_xpath(
            query.replace("count(", "count(", 1)[6:-1]).select(document)
        assert cluster.scalar(query) == float(len(expected))


class TestUpdateFlow:
    def test_update_then_query_round_trip(self, deployment):
        config, _document, cluster = deployment
        space = all_space_paths(config)[123]
        sa = cluster.add_sensing_agent("sa-int", [space])
        sa.send_update(space, values={"available": "yes", "price": "0"})
        block_query = type1_query(config, space[3][1], space[4][1],
                                  space[5][1])
        results, _, _ = cluster.query(block_query)
        space_el = [s for s in results[0].iter("parkingSpace")
                    if s.id == space[6][1]][0]
        assert space_el.child("available").text == "yes"

    def test_many_updates_keep_invariants(self, deployment):
        config, _document, cluster = deployment
        updates = UpdateWorkload(config, seed=42)
        sa = cluster.add_sensing_agent("sa-bulk", [])
        for path, values in updates.take(200):
            sa.send_update(path, values=values)
        from repro.core.invariants import structural_violations

        for site in cluster.sites:
            assert structural_violations(cluster.database(site)) == []


class TestCachingBehaviour:
    def test_cache_warms_and_hits(self):
        config = ParkingConfig.tiny()
        document = build_parking_document(config)
        cluster = Cluster(document, hierarchical(config, n_sites=9).plan)
        query = type3_query(config, "Pittsburgh", "Oakland", "Shadyside",
                            "2")
        site, _ = cluster.route_query(query)
        agent = cluster.agent(site)
        cluster.query(query)
        sent_after_first = agent.stats["subqueries_sent"]
        assert sent_after_first > 0
        cluster.query(query)
        assert agent.stats["subqueries_sent"] == sent_after_first

    def test_partial_match_across_different_queries(self):
        """A type-3 query is partially answered by earlier type-1 data
        cached at the city site (the paper's partial-match story)."""
        config = ParkingConfig.tiny()
        document = build_parking_document(config)
        cluster = Cluster(document, hierarchical(config, n_sites=9).plan)
        t3 = type3_query(config, "Pittsburgh", "Oakland", "Shadyside", "1")
        city_site, _ = cluster.route_query(t3)

        # Warm: a type-1 query for Oakland block 1 forced through the
        # city site caches Oakland's data there.
        t1 = type1_query(config, "Pittsburgh", "Oakland", "1")
        cluster.query(t1, at_site=city_site)
        agent = cluster.agent(city_site)
        before = agent.stats["subqueries_sent"]
        cluster.query(t3)
        fetched = agent.stats["subqueries_sent"] - before
        # Only the Shadyside half is missing.
        assert fetched == 1

    def test_no_cache_mode_stays_pristine(self):
        config = ParkingConfig.tiny()
        document = build_parking_document(config)
        cluster = Cluster(document, hierarchical(config, n_sites=9).plan,
                          oa_config=OAConfig(cache_results=False))
        t3 = type3_query(config, "Pittsburgh", "Oakland", "Shadyside", "1")
        site, _ = cluster.route_query(t3)
        size_before = cluster.database(site).size()
        cluster.query(t3)
        assert cluster.database(site).size() == size_before


class TestLoadBalancingUnderTraffic:
    def test_delegations_keep_answers_correct(self):
        config = ParkingConfig.tiny()
        document = build_parking_document(config)
        cluster = Cluster(document.copy(), hierarchical(config, 9).plan)
        query = type1_query(config, "Pittsburgh", "Oakland", "2")
        baseline = cluster_answer(cluster, query)
        # Migrate Oakland's blocks one by one, querying in between.
        from repro.service.parking import block_path

        for index, block in enumerate(config.block_ids()):
            target = f"site-{index % 9}"
            path = block_path(config, "Pittsburgh", "Oakland", block)
            if cluster.owner_map[tuple(path)] != target:
                cluster.delegate(path, target)
            assert cluster_answer(cluster, query) == baseline
        assert cluster.validate(document) == []


class TestConcurrentRuntime:
    def test_parallel_clients_get_correct_answers(self):
        import threading

        config = ParkingConfig.tiny()
        document = build_parking_document(config)
        cluster = Cluster(document.copy(), hierarchical(config, 9).plan)
        workload = QueryWorkload.qw_mix(config, seed=21)
        # Sampled up front: the workload's generator is not thread-safe.
        queries = [workload() for _ in range(40)]
        answers = []
        errors = []

        def client(share):
            try:
                for query in share:
                    answers.append((query, cluster_answer(cluster, query)))
            except Exception as exc:  # surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=client, args=(queries[i::4],))
                   for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
        assert not errors
        assert len(answers) == 40
        for query, answer in answers:
            assert answer == reference_answer(document, query), query
        assert cluster.validate(document) == []

    def test_no_two_threads_share_a_site_local_phase(self, monkeypatch):
        """Named regression: a user query merged into a site while a
        subquery's walk and its deferred ``build()`` ran there ("the
        site database changed after the answer's first inclusion").
        Four clients, a thread switch every microsecond, and every
        walk, merge and build recorded by (site, thread)."""
        import sys
        import threading

        from repro.core import gather as gather_module
        from repro.core.answer import AnswerBuilder
        from repro.core.database import SensorDatabase

        config = ParkingConfig.tiny()
        document = build_parking_document(config)
        cluster = Cluster(document.copy(), hierarchical(config, 9).plan)
        workload = QueryWorkload.qw_mix(config, seed=21)
        queries = [workload() for _ in range(40)]

        inside = {}  # site -> {thread: depth}
        overlaps = []
        book = threading.Lock()

        def recorded(func, site_of):
            def wrapper(*args, **kwargs):
                site, me = site_of(args), threading.get_ident()
                with book:
                    depths = inside.setdefault(site, {})
                    others = [t for t, d in depths.items() if d and t != me]
                    if others:
                        overlaps.append((func.__name__, site))
                    depths[me] = depths.get(me, 0) + 1
                try:
                    return func(*args, **kwargs)
                finally:
                    with book:
                        inside[site][me] -= 1
            return wrapper

        monkeypatch.setattr(gather_module, "run_qeg", recorded(
            gather_module.run_qeg, lambda args: args[0].site_id))
        monkeypatch.setattr(SensorDatabase, "store_fragment", recorded(
            SensorDatabase.store_fragment, lambda args: args[0].site_id))
        monkeypatch.setattr(AnswerBuilder, "build", recorded(
            AnswerBuilder.build, lambda args: args[0].database.site_id))

        answers = []
        errors = []

        def client(share):
            try:
                for query in share:
                    answers.append((query, cluster_answer(cluster, query)))
            except Exception as exc:  # surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=client, args=(queries[i::4],),
                                    daemon=True)
                   for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert overlaps == []
        assert len(answers) == 40
        for query, answer in answers:
            assert answer == reference_answer(document, query), query
        assert cluster.validate(document) == []


class TestReleasedTrees:
    """``Element.dispose`` runs only on trees nobody else holds: an
    envelope once encoded or decoded, a handed-over reply once merged, a
    served reply once framed.  Every node a disposal clears is
    recorded; none may be part of a site database afterwards."""

    @pytest.mark.parametrize("executor", ["serial", "threaded"])
    @pytest.mark.parametrize("transport", ["loopback", "tcp"])
    def test_no_disposed_node_is_left_in_a_site_database(
            self, transport, executor, monkeypatch):
        from repro.net.messages import AnswerMessage, Message
        from repro.net.tcpruntime import TcpCluster
        from repro.xmlkit import Element

        dispose, decode = Element.dispose, Message.decode
        roots = []
        cleared = []
        payload_parents = []

        def recorded_dispose(node):
            # Every node the tree lists, lent or not, with its children
            # list: the ones whose list the call replaced were cleared.
            listed, stack = [], [node]
            while stack:
                element = stack.pop()
                listed.append((element, element.children))
                stack.extend(child for child in element.children
                             if isinstance(child, Element))
            dispose(node)
            roots.append(node)
            cleared.extend(element for element, children in listed
                           if element.children is not children)

        def recorded_decode(text):
            message = decode(text)
            payloads = []
            if isinstance(message, AnswerMessage):
                for answer in message.answers:
                    payloads.extend(answer.value if answer.holder ==
                                    "results" else [answer.value])
            payload_parents.extend(payload.parent for payload in payloads
                                   if isinstance(payload, Element))
            return message

        monkeypatch.setattr(Element, "dispose", recorded_dispose)
        monkeypatch.setattr(Message, "decode", staticmethod(recorded_decode))

        config = ParkingConfig.paper_small()
        document = build_parking_document(config)
        plan = hierarchical(config).plan
        oa_config = OAConfig(executor=executor)
        workload = QueryWorkload.qw_mix(config, seed=33)
        queries = [query for query, _qtype in workload.take(16)]
        if transport == "tcp":
            runtime = TcpCluster(document.copy(), plan, oa_config=oa_config)
            cluster = runtime.cluster
        else:
            runtime = None
            # Byte accounting encodes every reply before the asking
            # site merges it, as on the wire.
            cluster = Cluster(document.copy(), plan, oa_config=oa_config,
                              count_bytes=True)
        try:
            for query in queries:
                assert cluster_answer(cluster, query) == \
                    reference_answer(document, query), query
            assert cluster.validate(document) == []
            in_databases = {id(node) for site in cluster.sites
                            for node in cluster.database(site).root.iter()}
        finally:
            if runtime is not None:
                runtime.close()

        assert roots and cleared
        assert not [node for node in cleared if id(node) in in_databases]
        if transport == "tcp":
            assert payload_parents
        assert all(parent is None for parent in payload_parents)

"""Failure-injection tests: the system's behaviour when parts break.

The paper's prototype assumes cooperative, reachable sites.  This
implementation does not: subquery dispatch retries with deterministic
backoff and DNS re-resolution, per-peer circuit breakers stop hammering
dead sites, and a gather that still cannot reach a region degrades to a
partial answer carrying a machine-readable completeness report instead
of raising.  The seeded :class:`~repro.net.faults.FaultyNetwork` drives
the chaos property: under injected faults every query either matches
the fault-free answer or is flagged incomplete with exactly the
unreachable regions listed.
"""

import socket

import pytest

from repro.core import PartitionPlan, structural_violations
from repro.core.errors import CoreError
from repro.net import (
    BreakerPolicy,
    CircuitBreaker,
    Cluster,
    Deadline,
    ErrorMessage,
    FaultyNetwork,
    LoopbackNetwork,
    OAConfig,
    QueryMessage,
    RetryPolicy,
    TcpNetwork,
)
from repro.net.errors import MessageError, NetError
from repro.net.framing import recv_framed, send_framed
from repro.net.messages import AnswerMessage, Message, UpdateMessage
from repro.net.retry import CLOSED, HALF_OPEN, OPEN, hash_fraction
from repro.net.tcpruntime import TcpCluster
from repro.xmlkit import Element, canonical_form, parse_fragment

from tests.conftest import (
    ETNA,
    FIGURE2_QUERY,
    OAKLAND,
    PAPER_DOCUMENT,
    SHADYSIDE,
    id_path,
)

PREFIX = ("/usRegion[@id='NE']/state[@id='PA']/county[@id='Allegheny']"
          "/city[@id='Pittsburgh']")
SHADY_BLOCK = PREFIX + "/neighborhood[@id='Shadyside']/block[@id='1']"
OAK_BLOCK = PREFIX + "/neighborhood[@id='Oakland']/block[@id='1']"

PAPER_PLAN = {
    "top": [id_path("usRegion=NE")],
    "oak": [OAKLAND],
    "shady": [SHADYSIDE],
    "etna": [ETNA],
}


def fast_retries(**overrides):
    """A retry policy that burns no wall clock in tests."""
    settings = dict(max_attempts=3, base_delay=0.0, max_delay=0.0,
                    jitter=0.0, sleep=lambda seconds: None)
    settings.update(overrides)
    return RetryPolicy(**settings)


def make_cluster(oa_config=None, network=None):
    return Cluster(parse_fragment(PAPER_DOCUMENT), PartitionPlan(PAPER_PLAN),
                   oa_config=oa_config or OAConfig(retry_policy=fast_retries()),
                   network=network)


def scrubbed(element):
    """Canonical form without volatile timestamp attributes."""
    clone = element.copy()
    for node in clone.iter():
        node.delete_attribute("timestamp")
    return canonical_form(clone)


def answer_set(results):
    return sorted(scrubbed(result) for result in results)


class TestPartialAnswers:
    def test_query_needing_dead_site_degrades(self):
        cluster = make_cluster()
        cluster.network.unregister("shady")
        results, _, outcome = cluster.query(FIGURE2_QUERY, at_site="top")
        assert not outcome.complete
        assert len(results) == 1  # Oakland's space still answers
        assert outcome.unreachable_paths == (SHADYSIDE,)
        report = outcome.completeness_report()
        assert report["complete"] is False
        [miss] = report["unreachable"]
        assert tuple(tuple(entry) for entry in miss["id_path"]) == SHADYSIDE
        assert miss["attempts"] == 3
        assert any("shady" in cause for cause in miss["causes"])

    def test_partial_answer_excises_failed_region(self):
        cluster = make_cluster()
        cluster.network.unregister("shady")
        results, _, outcome = cluster.query(SHADY_BLOCK, at_site="top")
        assert results == []
        assert not outcome.complete

    def test_legacy_raising_surface(self):
        """The raising surface is gone (``partial_answers`` was its
        switch): what it raised is the report's cause."""
        with pytest.raises(TypeError):
            OAConfig(partial_answers=False)
        cluster = make_cluster()
        cluster.network.unregister("shady")
        _, _, outcome = cluster.query(SHADY_BLOCK, at_site="top")
        [miss] = outcome.completeness_report()["unreachable"]
        assert tuple(tuple(entry) for entry in miss["id_path"]) == SHADYSIDE
        assert len(miss["causes"]) == 3
        assert all("UnknownSite" in cause for cause in miss["causes"])

    def test_local_queries_survive_dead_peer(self):
        cluster = make_cluster()
        cluster.network.unregister("shady")
        results, _, outcome = cluster.query(OAK_BLOCK)
        assert len(results) == 1
        assert outcome.complete

    def test_cached_data_survives_dead_owner(self):
        cluster = make_cluster()
        cluster.query(SHADY_BLOCK, at_site="top")  # warm the cache
        cluster.network.unregister("shady")
        results, _, outcome = cluster.query(SHADY_BLOCK, at_site="top")
        assert len(results) == 1  # the cache answers
        assert outcome.complete

    def test_state_clean_after_degraded_gather(self):
        cluster = make_cluster()
        cluster.network.unregister("shady")
        _, _, outcome = cluster.query(SHADY_BLOCK, at_site="top")
        assert not outcome.complete
        assert structural_violations(cluster.database("top")) == []
        # And the site still answers what it can.
        results, _, _ = cluster.query(OAK_BLOCK, at_site="top")
        assert len(results) == 1

    def test_failure_counters_surface(self):
        cluster = make_cluster()
        cluster.network.unregister("shady")
        cluster.query(SHADY_BLOCK, at_site="top")
        agent = cluster.agent("top")
        assert agent.stats["retries"] == 2
        assert agent.stats["subquery_failures"] == 3
        assert agent.stats["dns_refreshes"] == 2
        assert agent.driver.stats["failed_subqueries"] == 1
        assert agent.driver.stats["partial_gathers"] == 1

    def test_completeness_report_rides_the_wire(self):
        cluster = make_cluster()
        cluster.network.unregister("shady")
        message = QueryMessage(SHADY_BLOCK, user=True, sender="client")
        reply = cluster.network.request("client", "top", message)
        decoded = Message.decode(reply.encode())
        assert decoded.completeness is not None
        assert decoded.completeness["complete"] is False
        [miss] = decoded.completeness["unreachable"]
        assert tuple(tuple(entry) for entry in miss["id_path"]) == SHADYSIDE
        assert miss["attempts"] == 3

    def test_unreachable_entry_has_the_golden_shape(self):
        """A real failure reports exactly the entry the golden wire
        report pins, ``"scalar": False`` included."""
        from repro.core.answer import Subquery
        from repro.core.gather import SubqueryFailure
        from tests.test_wire_golden import PATH, QUERY, REPORT

        [golden] = REPORT["unreachable"]
        failure = SubqueryFailure(
            Subquery(QUERY, PATH, Subquery.INCOMPLETE), golden["attempts"],
            golden["causes"])
        assert failure.report() == golden
        assert failure.report()["scalar"] is False


class TestRetries:
    def test_transient_fault_healed_by_retry(self):
        cluster = make_cluster()
        failures = {"remaining": 2}

        def flaky(src, dst, message):
            if dst == "shady" and failures["remaining"] > 0:
                failures["remaining"] -= 1
                raise ConnectionError("link to shady down")

        cluster.network.interceptors.append(flaky)
        results, _, outcome = cluster.query(SHADY_BLOCK, at_site="top")
        assert len(results) == 1
        assert outcome.complete
        assert cluster.agent("top").stats["retries"] == 2

    def test_nonretryable_error_stops_retrying(self):
        cluster = make_cluster()

        class _Broken:
            def handle_message(self, message):
                return ErrorMessage(message.message_id, code="boom",
                                    detail="permanent", retryable=False,
                                    sender="shady")

        cluster.network.register("shady", _Broken())
        results, _, outcome = cluster.query(SHADY_BLOCK, at_site="top")
        assert results == []
        assert not outcome.complete
        [miss] = outcome.completeness_report()["unreachable"]
        assert miss["attempts"] == 1  # no budget burnt on a lost cause
        assert any("boom" in cause for cause in miss["causes"])
        assert cluster.agent("top").stats["retries"] == 0

    def test_malformed_reply_degrades(self):
        cluster = make_cluster()

        class _Liar:
            def handle_message(self, message):
                return QueryMessage("/nonsense")  # not an AnswerMessage

        cluster.network.register("shady", _Liar())
        results, _, outcome = cluster.query(SHADY_BLOCK, at_site="top")
        assert results == []
        assert not outcome.complete
        [miss] = outcome.completeness_report()["unreachable"]
        assert any("replied" in cause for cause in miss["causes"])

    def test_retry_reresolves_dns_after_migration(self):
        # The client of a migrated region holds a stale DNS entry for a
        # site that then dies; the retry path must invalidate the entry
        # and follow authoritative DNS to the new owner.
        cluster = make_cluster(OAConfig(retry_policy=fast_retries(),
                                        cache_results=False))
        cluster.query(SHADY_BLOCK, at_site="top")  # warm top's resolver
        cluster.delegate(SHADYSIDE, "oak")
        cluster.network.unregister("shady")
        results, _, outcome = cluster.query(SHADY_BLOCK, at_site="top")
        assert len(results) == 1
        assert outcome.complete
        assert cluster.agent("top").stats["dns_refreshes"] >= 1
        assert cluster.agent("top").stats["retries"] >= 1


class TestBackoffDeterminism:
    def test_schedule_reproducible(self):
        policy = RetryPolicy(max_attempts=5, base_delay=0.1, multiplier=2.0,
                             max_delay=1.0, jitter=0.5)
        key = ("site-a", "site-b", "/query")
        assert policy.schedule(key) == policy.schedule(key)
        assert policy.schedule(key) != policy.schedule(("other",))

    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(max_attempts=6, base_delay=0.1, multiplier=2.0,
                             max_delay=0.5, jitter=0.0)
        assert policy.schedule() == [0.1, 0.2, 0.4, 0.5, 0.5]

    def test_jitter_stays_in_band(self):
        policy = RetryPolicy(base_delay=0.1, multiplier=1.0, jitter=0.5)
        for attempt in range(1, 20):
            delay = policy.backoff(attempt, key="k")
            assert 0.05 <= delay <= 0.1

    def test_hash_fraction_is_stable(self):
        # Pinned: a changed hash silently reshuffles every seeded fault
        # schedule and backoff jitter in the suite.
        assert hash_fraction("a", 1) == hash_fraction("a", 1)
        assert 0.0 <= hash_fraction("b", 2) < 1.0
        assert hash_fraction("a", 1) != hash_fraction("a", 2)

    def test_deadline_clamps_and_expires(self):
        clock = {"now": 0.0}
        deadline = Deadline(10.0, clock=lambda: clock["now"])
        assert not deadline.expired
        assert deadline.clamp(30.0) == 10.0
        clock["now"] = 4.0
        assert deadline.clamp(30.0) == 6.0
        clock["now"] = 10.0
        assert deadline.expired
        assert deadline.clamp(30.0) == 0.0
        assert Deadline(None).clamp(30.0) == 30.0

    def test_expired_deadline_stops_attempts(self):
        cluster = make_cluster(OAConfig(
            retry_policy=fast_retries(max_attempts=5, deadline=0.0)))
        cluster.network.unregister("shady")
        _, _, outcome = cluster.query(SHADY_BLOCK, at_site="top")
        [miss] = outcome.completeness_report()["unreachable"]
        assert miss["attempts"] == 1


class TestCircuitBreaker:
    def test_state_machine_transitions(self):
        clock = {"now": 0.0}
        breaker = CircuitBreaker(BreakerPolicy(
            failure_threshold=2, reset_timeout=10.0,
            clock=lambda: clock["now"]))
        assert breaker.state == CLOSED
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == CLOSED  # one failure is not a pattern
        breaker.record_failure()
        assert breaker.state == OPEN
        assert not breaker.allow()  # fast failure, no wire traffic
        clock["now"] = 10.0
        assert breaker.allow()  # the half-open probe
        assert breaker.state == HALF_OPEN
        assert not breaker.allow()  # only one probe in flight
        breaker.record_failure()
        assert breaker.state == OPEN  # probe failed: straight back open
        clock["now"] = 20.0
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == CLOSED
        assert breaker.allow()
        snapshot = breaker.snapshot()
        assert snapshot["opens"] == 2
        assert snapshot["probes"] == 2

    def test_open_circuit_sheds_traffic(self):
        calls = {"shady": 0}

        def count(src, dst, message):
            if dst == "shady":
                calls["shady"] += 1

        cluster = make_cluster(OAConfig(
            retry_policy=fast_retries(max_attempts=1),
            breaker=BreakerPolicy(failure_threshold=2, reset_timeout=1e9)))
        cluster.network.interceptors.append(count)
        cluster.network.unregister("shady")
        for _ in range(2):  # two failures trip the breaker
            cluster.query(SHADY_BLOCK, at_site="top")
        assert calls["shady"] == 2
        _, _, outcome = cluster.query(SHADY_BLOCK, at_site="top")
        assert calls["shady"] == 2  # not a single extra wire message
        assert not outcome.complete
        agent = cluster.agent("top")
        assert agent.stats["circuit_fast_fails"] >= 1
        assert agent.health_snapshot()["shady"]["state"] == OPEN

    def test_breaker_disabled_by_config(self):
        cluster = make_cluster(OAConfig(retry_policy=fast_retries(),
                                        breaker=False))
        assert cluster.agent("top").health is None
        assert cluster.agent("top").health_snapshot() == {}


class TestStaleOnError:
    STALE_QUERY = (PREFIX + "/neighborhood[@id='Shadyside']"
                   "[timestamp() > current-time() - 30]")
    WARM_QUERY = PREFIX + "/neighborhood[@id='Shadyside']"

    def _warmed_cluster(self, stale_on_error):
        cluster = make_cluster(OAConfig(retry_policy=fast_retries(),
                                        stale_on_error=stale_on_error))
        results, _, outcome = cluster.query(self.WARM_QUERY, at_site="top")
        assert len(results) == 1 and outcome.complete
        cluster.network.unregister("shady")
        return cluster

    def test_default_excises_stale_region(self):
        # Serving the stale cached copy would silently violate the
        # consistency predicate; by default the walk keeps asking for
        # the region, so nothing in it matches, and reports it
        # unreachable.
        cluster = self._warmed_cluster(stale_on_error=False)
        results, _, outcome = cluster.query(self.STALE_QUERY,
                                            at_site="top", now=1000.0)
        assert results == []
        assert not outcome.complete
        assert outcome.unreachable_paths == (SHADYSIDE,)

    def test_opt_in_serves_stale_cache(self):
        cluster = self._warmed_cluster(stale_on_error=True)
        results, _, outcome = cluster.query(self.STALE_QUERY,
                                            at_site="top", now=1000.0)
        assert len(results) == 1
        assert outcome.complete  # every region represented, one stale
        report = outcome.completeness_report()
        assert report["unreachable"] == []
        [stale] = report["stale_served"]
        assert tuple(tuple(entry) for entry in stale["id_path"]) == SHADYSIDE
        assert cluster.agent("top").driver.stats["stale_served"] == 1


class TestErrorMessageWire:
    def test_roundtrip(self):
        message = ErrorMessage(42, code="handler-error",
                               detail="KeyError: 'x'", retryable=False,
                               sender="shady")
        decoded = Message.decode(message.encode())
        assert isinstance(decoded, ErrorMessage)
        assert decoded.in_reply_to == 42
        assert decoded.code == "handler-error"
        assert decoded.detail == "KeyError: 'x'"
        assert decoded.retryable is False
        assert decoded.sender == "shady"

    def test_retryable_default_roundtrip(self):
        decoded = Message.decode(ErrorMessage(7).encode())
        assert decoded.retryable is True
        assert decoded.code == "error"

    def test_complete_answer_carries_no_report(self):
        message = AnswerMessage(3, results=[], sender="top")
        assert message.completeness is None
        assert "completeness" not in message.encode()


class TestTcpRobustness:
    def test_handler_exception_becomes_error_reply(self):
        with TcpCluster(parse_fragment(PAPER_DOCUMENT),
                        PartitionPlan(PAPER_PLAN)) as tcp:
            reply = tcp.tcp_network.request(
                "client", "top",
                QueryMessage("/a[unclosed", user=True, sender="client"))
            assert isinstance(reply, ErrorMessage)
            assert reply.code == "handler-error"
            assert reply.retryable is False
            assert "XPathSyntaxError" in reply.detail
            # The server survives: the same cluster still answers.
            results, _, outcome = tcp.cluster.query(OAK_BLOCK, at_site="top")
            assert len(results) == 1 and outcome.complete

    def test_undecodable_frame_becomes_error_reply(self):
        with TcpCluster(parse_fragment(PAPER_DOCUMENT),
                        PartitionPlan(PAPER_PLAN)) as tcp:
            sock = socket.create_connection(tcp.servers["top"].address,
                                            timeout=5)
            try:
                send_framed(sock, "this is not xml")
                reply = Message.decode(recv_framed(sock))
                assert isinstance(reply, ErrorMessage)
                assert reply.code == "bad-message"
                assert reply.retryable is False
                # Same connection keeps working after the bad frame.
                send_framed(sock, QueryMessage(
                    OAK_BLOCK, user=True, sender="client").encode())
                assert isinstance(Message.decode(recv_framed(sock)),
                                  AnswerMessage)
            finally:
                sock.close()

    @pytest.mark.parametrize("garbled", [
        "this is not xml",                      # XmlParseError
        "<message kind='answer'/>",             # TypeError: no id
        "<message kind='answer' id='x'/>",      # ValueError
        "<message kind='update' id='3'/>",      # AttributeError
        "<message kind='nope' id='3'/>",        # unknown kind
    ])
    def test_decode_raises_message_error_for_any_malformed_envelope(
            self, garbled):
        with pytest.raises(MessageError) as info:
            Message.decode(garbled)
        if "nope" not in garbled:
            assert info.value.__cause__ is not None
            assert type(info.value.__cause__).__name__ in str(info.value)

    @staticmethod
    def _garbling(direction, site, times):
        """A ``network_wrapper`` that corrupts the bytes of the first
        *times* requests to (or replies from) *site*."""
        def wrap(network):
            exchange = network._exchange
            left = [times]

            def garbled_exchange(dst, encoded, message=None):
                if dst != site or left[0] <= 0:
                    return exchange(dst, encoded, message)
                left[0] -= 1
                if direction == "request":
                    return exchange(dst, encoded[:-9], message)
                return exchange(dst, encoded, message)[:-9]

            network._exchange = garbled_exchange
            return network
        return wrap

    def _garbled_cluster(self, direction, times):
        return TcpCluster(
            parse_fragment(PAPER_DOCUMENT), PartitionPlan(PAPER_PLAN),
            oa_config=OAConfig(retry_policy=fast_retries()),
            network_wrapper=self._garbling(direction, "shady", times))

    def test_one_garbled_reply_is_a_failed_attempt_not_a_crash(self):
        with self._garbled_cluster("reply", times=1) as tcp:
            results, _, outcome = tcp.cluster.query(SHADY_BLOCK,
                                                    at_site="top")
            assert len(results) == 1 and outcome.complete
            assert tcp.cluster.agent("top").stats["retries"] == 1

    def test_garbled_replies_degrade_to_a_partial_answer(self):
        with self._garbled_cluster("reply", times=99) as tcp:
            results, _, outcome = tcp.cluster.query(FIGURE2_QUERY,
                                                    at_site="top")
            assert len(results) == 1  # Oakland's space still answers
            assert outcome.unreachable_paths == (SHADYSIDE,)
            [miss] = outcome.completeness_report()["unreachable"]
            assert miss["attempts"] == 3
            assert all("MessageError: XmlParseError" in cause
                       for cause in miss["causes"])

    def test_garbled_request_is_refused_once_with_a_readable_detail(self):
        with self._garbled_cluster("request", times=99) as tcp:
            results, _, outcome = tcp.cluster.query(FIGURE2_QUERY,
                                                    at_site="top")
            assert len(results) == 1
            assert outcome.unreachable_paths == (SHADYSIDE,)
            [miss] = outcome.completeness_report()["unreachable"]
            assert miss["attempts"] == 1  # bad-message is not retryable
            [cause] = miss["causes"]
            assert "bad-message: MessageError: XmlParseError: " in cause
            assert "(line 1, column" in cause

    def test_tell_is_fire_and_forget(self):
        network = TcpNetwork(addresses={"ghost": ("127.0.0.1", 1)},
                             timeout=1.0)
        network.tell("client", "ghost", QueryMessage("/x", sender="client"))
        assert network.pool_stats["send_failures"] == 1
        with pytest.raises(OSError):
            network.request("client", "ghost",
                            QueryMessage("/x", sender="client"))


class TestFaultyNetwork:
    def test_rates_validated(self):
        with pytest.raises(ValueError):
            FaultyNetwork(LoopbackNetwork(), drop_rate=0.8, reset_rate=0.3)
        with pytest.raises(ValueError):
            FaultyNetwork(LoopbackNetwork(), drop_rate=-0.1)

    def test_same_seed_same_schedule(self):
        def decisions(seed):
            network = FaultyNetwork(LoopbackNetwork(), seed=seed,
                                    drop_rate=0.3)
            return [network._decide("a", "b") for _ in range(50)]

        assert decisions(7) == decisions(7)
        assert decisions(7) != decisions(8)
        assert "drop" in decisions(7)

    def test_crash_and_recovery(self):
        cluster = make_cluster(
            network=FaultyNetwork(LoopbackNetwork(), seed=0))
        cluster.network.crash("shady")
        results, _, outcome = cluster.query(SHADY_BLOCK, at_site="top")
        assert results == [] and not outcome.complete
        assert cluster.network.fault_stats["down_refused"] >= 1
        cluster.network.recover("shady")
        results, _, outcome = cluster.query(SHADY_BLOCK, at_site="top")
        assert len(results) == 1 and outcome.complete

    def test_error_replies_are_retried_through(self):
        cluster = make_cluster(
            network=FaultyNetwork(LoopbackNetwork(), seed=3, error_rate=0.3))
        results, _, outcome = cluster.query(FIGURE2_QUERY, at_site="top")
        assert outcome.complete
        assert len(results) == 3


class TestChaosProperty:
    """With seeded faults every query heals or degrades -- never raises."""

    QUERIES = (
        FIGURE2_QUERY,
        SHADY_BLOCK,
        OAK_BLOCK,
        "/usRegion[@id='NE']/state[@id='PA']/county[@id='Allegheny']"
        "/city[@id='Etna']/neighborhood[@id='Riverfront']",
    )

    def _serial_config(self, **overrides):
        # Serial dispatch keeps per-link request sequences (and so the
        # seeded fault draws) deterministic across runs.
        return OAConfig(retry_policy=fast_retries(), executor="serial",
                        **overrides)

    def _baseline(self):
        cluster = make_cluster(self._serial_config())
        answers = {}
        for query in self.QUERIES:
            results, _, outcome = cluster.query(query, at_site="top")
            assert outcome.complete
            answers[query] = answer_set(results)
        return answers

    def _run_chaos(self, seed, drop_rate=0.2):
        network = FaultyNetwork(LoopbackNetwork(), seed=seed,
                                drop_rate=drop_rate)
        cluster = make_cluster(self._serial_config(), network=network)
        run = []
        for query in self.QUERIES:
            results, _, outcome = cluster.query(query, at_site="top")
            run.append((query, answer_set(results), outcome.complete,
                        outcome.unreachable_paths))
        return run, network.fault_stats

    def test_heal_or_degrade_under_drops(self):
        baseline = self._baseline()
        saw_drop = False
        for seed in range(8):
            run, fault_stats = self._run_chaos(seed)
            saw_drop = saw_drop or fault_stats["drops"] > 0
            for query, answers, complete, unreachable in run:
                if complete:
                    assert answers == baseline[query], (seed, query)
                else:
                    # Flagged incomplete: what did come back is a
                    # subset, and the report says exactly what did not.
                    assert unreachable, (seed, query)
                    assert set(answers) <= set(baseline[query]), (seed, query)
        assert saw_drop  # the seeds actually exercised faults

    def test_same_seed_is_reproducible(self):
        first_run, first_stats = self._run_chaos(seed=5, drop_rate=0.3)
        second_run, second_stats = self._run_chaos(seed=5, drop_rate=0.3)
        assert first_run == second_run
        assert first_stats == second_stats

    def test_chaos_over_tcp(self):
        baseline = self._baseline()
        with TcpCluster(
                parse_fragment(PAPER_DOCUMENT), PartitionPlan(PAPER_PLAN),
                network_wrapper=lambda net: FaultyNetwork(
                    net, seed=11, drop_rate=0.2),
                oa_config=self._serial_config()) as tcp:
            for query in self.QUERIES:
                results, _, outcome = tcp.cluster.query(query, at_site="top")
                if outcome.complete:
                    assert answer_set(results) == baseline[query], query
                else:
                    assert outcome.unreachable_paths, query
                    assert set(answer_set(results)) <= \
                        set(baseline[query]), query
            assert tcp.network.fault_stats["requests"] > 0

    def test_fault_free_wire_parity(self):
        """Faults off: the resilience layer adds zero wire messages."""
        legacy = make_cluster(OAConfig(
            retry_policy=RetryPolicy(max_attempts=1), breaker=False,
            executor="serial"))
        guarded = make_cluster(self._serial_config())
        for query in self.QUERIES:
            legacy_results, _, _ = legacy.query(query, at_site="top")
            guarded_results, _, _ = guarded.query(query, at_site="top")
            assert answer_set(legacy_results) == answer_set(guarded_results)
        assert legacy.network.traffic.messages == \
            guarded.network.traffic.messages
        assert legacy.network.traffic.summary()["links"] == \
            guarded.network.traffic.summary()["links"]


class TestFaultMetrics:
    def test_collect_fault_counters(self):
        from repro.obs.registry import fault_counters

        cluster = make_cluster()
        cluster.network.unregister("shady")
        cluster.query(SHADY_BLOCK, at_site="top")
        totals = fault_counters(cluster.agents)
        assert totals["retries"] == 2
        assert totals["subquery_failures"] == 3
        assert totals["failed_subqueries"] == 1
        assert totals["partial_gathers"] == 1
        assert totals["dns_refreshes"] == 2
        assert totals["breakers"]["top"]["shady"]["consecutive_failures"] == 3


class TestBadInputs:
    def test_syntactically_bad_query_raises_cleanly(self, paper_cluster):
        from repro.xpath.errors import XPathSyntaxError

        with pytest.raises(XPathSyntaxError):
            paper_cluster.query("/a[unclosed")

    def test_ordered_construct_rejected(self, paper_cluster):
        from repro.xpath.errors import XPathUnsupportedError

        with pytest.raises(XPathUnsupportedError):
            paper_cluster.query("/usRegion[@id='NE']/state[1]")

    def test_update_to_unknown_node_fails_loudly(self, paper_cluster):
        from repro.core import UnknownNodeError
        from repro.net import NameNotFound

        sa = paper_cluster.add_sensing_agent("sa-x", [])
        ghost = OAKLAND + (("block", "1"), ("parkingSpace", "999"))
        # Fails at DNS resolution (the node was never registered); a
        # stale-but-resolvable path would fail at the owner instead.
        with pytest.raises((UnknownNodeError, NameNotFound)):
            sa.send_update(ghost, values={"available": "no"})

    def test_unknown_message_kind_rejected_by_oa(self, paper_cluster):
        class _Weird:
            kind = "weird"
            message_id = 1

            def encoded_size(self):
                return 1

        # One structured, terminal refusal -- not an escaped exception.
        reply = paper_cluster.agent("top").handle_message(_Weird())
        assert isinstance(reply, ErrorMessage)
        assert reply.code == "unhandled-kind" and not reply.retryable
        assert reply.in_reply_to == 1


class TestCorruptionDetection:
    def test_invalid_status_attribute_detected(self, paper_cluster):
        element = paper_cluster.database("top").find(SHADYSIDE)
        element.set("status", "half-done")
        problems = structural_violations(paper_cluster.database("top"))
        assert any("invalid status" in p for p in problems)

    def test_duplicate_sibling_ids_detected(self, paper_cluster):
        from repro.xmlkit import Element

        city = paper_cluster.database("top").find(OAKLAND[:-1])
        rogue = Element("neighborhood", attrib={"id": "Oakland"})
        city.append(rogue)
        problems = structural_violations(paper_cluster.database("top"))
        assert any("duplicate sibling id" in p for p in problems)


class TestKillRestartChaos:
    """Agent-level process death composed with the circuit breakers.

    The transport-level crash()/recover() schedule keeps the victim's
    memory alive; kill_agent/restart_agent destroy it and bring it
    back through the durability subsystem -- so the half-open probe
    that re-opens a circuit lands on a *freshly recovered* site, and
    the answer it carries must still match the pre-kill baseline.
    """

    def _durable_chaos_cluster(self, tmp_path, breaker_clock):
        from repro.durability import DurabilityConfig

        network = FaultyNetwork(LoopbackNetwork(), seed=11)
        cluster = Cluster(
            parse_fragment(PAPER_DOCUMENT), PartitionPlan(PAPER_PLAN),
            network=network,
            durability=DurabilityConfig(
                directory=str(tmp_path / "durability"), sync_every=0),
            clock=lambda: 1000.0,
            oa_config=OAConfig(
                retry_policy=fast_retries(max_attempts=1),
                breaker=BreakerPolicy(failure_threshold=2,
                                      reset_timeout=30.0,
                                      clock=breaker_clock)))
        cluster.bind_lifecycle(network)
        return cluster, network

    def test_half_open_probe_hits_recovered_site(self, tmp_path):
        clock = {"now": 0.0}
        cluster, network = self._durable_chaos_cluster(
            tmp_path, lambda: clock["now"])
        # Baseline straight from the owner -- leaving top's cache cold
        # so its gathers genuinely need the (soon-dead) site.
        baseline, _, outcome = cluster.query(SHADY_BLOCK, at_site="shady")
        assert outcome.complete
        shady_before = cluster.database("shady")
        from repro.durability import partition_fingerprint

        fingerprint = partition_fingerprint(shady_before)

        # Process death: transport severed AND agent state destroyed.
        network.kill_agent("shady")
        for _ in range(2):  # trip top's breaker for shady
            _, _, degraded = cluster.query(SHADY_BLOCK, at_site="top")
            assert not degraded.complete
        top = cluster.agent("top")
        assert top.health_snapshot()["shady"]["state"] == OPEN

        # While the circuit is open the dead site sees zero traffic.
        _, _, still_open = cluster.query(SHADY_BLOCK, at_site="top")
        assert not still_open.complete
        assert top.stats["circuit_fast_fails"] >= 1

        # Recovery from WAL + checkpoint, then the reset timeout
        # elapses: the half-open probe lands on the recovered site.
        network.restart_agent("shady")
        assert partition_fingerprint(
            cluster.database("shady")) == fingerprint
        clock["now"] = 31.0
        results, _, healed = cluster.query(SHADY_BLOCK, at_site="top")
        assert healed.complete
        assert answer_set(results) == answer_set(baseline)
        assert top.health_snapshot()["shady"]["state"] == CLOSED
        assert network.fault_stats["agent_kills"] == 1
        assert network.fault_stats["agent_restarts"] == 1
        cluster.shutdown()

    def test_probe_against_still_dead_site_reopens(self, tmp_path):
        clock = {"now": 0.0}
        cluster, network = self._durable_chaos_cluster(
            tmp_path, lambda: clock["now"])
        network.kill_agent("oak")
        for _ in range(2):
            cluster.query(FIGURE2_QUERY, at_site="top")
        top = cluster.agent("top")
        assert top.health_snapshot()["oak"]["state"] == OPEN

        clock["now"] = 31.0  # probe fires -- but oak is still dead
        _, _, outcome = cluster.query(FIGURE2_QUERY, at_site="top")
        assert not outcome.complete
        assert top.health_snapshot()["oak"]["state"] == OPEN
        assert top.health_snapshot()["oak"]["probes"] >= 1

        # A later probe after recovery heals the circuit.
        network.restart_agent("oak")
        clock["now"] = 62.0
        _, _, healed = cluster.query(FIGURE2_QUERY, at_site="top")
        assert healed.complete
        assert top.health_snapshot()["oak"]["state"] == CLOSED
        cluster.shutdown()


# ----------------------------------------------------------------------
# The guarded request: one breaker outcome per send, for every caller
# ----------------------------------------------------------------------
R = (("region", "R"),)
G0, G1, G2 = (R + (("group", f"g{index}"),) for index in range(3))
G0_SENSORS = "/region[@id='R']/group[@id='g0']/sensor"
G2_SENSORS = "/region[@id='R']/group[@id='g2']/sensor"


def guarded_document():
    """``region R`` > ``group g0..g2`` > ``sensor s0, s1`` > ``value``."""
    root = Element("region", attrib={"id": "R"})
    for group_index in range(3):
        group = Element("group", attrib={"id": f"g{group_index}"})
        root.append(group)
        for sensor_index in range(2):
            sensor = Element("sensor", attrib={"id": f"s{sensor_index}"})
            sensor.append(Element(
                "value", text=str(10 * group_index + sensor_index)))
            group.append(sensor)
    return root


class ScriptedNetwork:
    """Answers the scripted ``(kind, dst)`` requests itself and passes
    the rest to the wrapped transport, logging every request."""

    def __init__(self, inner):
        self.inner = inner
        self.script = {}
        self.sent = []

    def request(self, src, dst, message):
        self.sent.append((src, dst, message.kind))
        outcome = self.script.get((message.kind, dst))
        if outcome == "retryable-error":
            return ErrorMessage(message.message_id, code="server-overloaded",
                                detail="scripted", sender=dst)
        if outcome == "fatal-error":
            return ErrorMessage(message.message_id, code="unhandled-kind",
                                detail="scripted", retryable=False,
                                sender=dst)
        if outcome == "transport-error":
            raise ConnectionResetError("scripted reset")
        if outcome == "wrong-reply-kind":
            return QueryMessage("/nonsense", sender=dst)
        return self.inner.request(src, dst, message)

    def __getattr__(self, name):
        return getattr(self.inner, name)


class Deployment:
    """Four sites on a ring (leaf, mid, spare, top; ``k=1``: ``mid``
    holds ``leaf``'s copy, and ``spare``, owning nothing, holds
    ``mid``'s, so ``top`` asks ``mid`` for its data) with replication
    and aggregation on, a scripted network, and breakers of threshold 1
    on an injected clock."""

    def __init__(self, transport, prepare=None):
        # Skipped, not failed, in a tree without the opt-in packages.
        aggregation = pytest.importorskip("repro.agg").AggregationConfig()
        replication = pytest.importorskip(
            "repro.replication").ReplicationConfig(k=1)
        self.now = 0.0
        arguments = dict(
            oa_config=OAConfig(
                cache_results=False, executor="serial",
                retry_policy=fast_retries(max_attempts=2),
                breaker=BreakerPolicy(failure_threshold=1,
                                      reset_timeout=10.0,
                                      clock=lambda: self.now)),
            subsystems=[replication, aggregation])
        plan = PartitionPlan({"top": [R], "mid": [G0, G1], "leaf": [G2],
                              "spare": []})
        if transport == "tcp":
            self.runtime = TcpCluster(guarded_document(), plan,
                                      network_wrapper=ScriptedNetwork,
                                      **arguments)
            self.cluster = self.runtime.cluster
        else:
            self.runtime = self.cluster = Cluster(
                guarded_document(), plan,
                network=ScriptedNetwork(LoopbackNetwork()), **arguments)
        self.network = self.cluster.network
        if prepare is not None:
            prepare(self)
            del self.network.sent[:]

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        if self.runtime is not self.cluster:
            self.runtime.close()

    def agent(self, site):
        return self.cluster.agents[site]

    def breaker(self, asker, peer):
        return self.agent(asker).health.breaker(peer)

    def trip(self, asker, peer):
        """Open *asker*'s circuit for *peer* (threshold 1)."""
        self.breaker(asker, peer).record_failure()

    def count_outcomes(self, asker):
        """Record every ``record_*`` call on *asker*'s tracker."""
        health = self.agent(asker).health
        outcomes = []
        for name in ("record_success", "record_failure"):
            def counted(site, name=name, record=getattr(health, name)):
                outcomes.append((site, name))
                record(site)
            setattr(health, name, counted)
        return outcomes

    def sent(self, asker):
        return [(dst, kind) for src, dst, kind in self.network.sent
                if src == asker]


def _update(sensor, value):
    return UpdateMessage(G0 + (("sensor", sensor),),
                         values={"value": value}, sender="sensor")


def _ask_subquery(deployment):
    deployment.cluster.query(G0_SENSORS, at_site="top")


def _ask_batch(deployment):
    deployment.cluster.query("/region[@id='R']/group/sensor", at_site="top")


def _ask_partial_aggregate(deployment):
    deployment.cluster.scalar(f"sum({G0_SENSORS}/value)", at_site="top")


def _ask_failover(deployment):
    # leaf is unreachable, so top re-sends the ask, flagged no_forward,
    # to mid, leaf's ring peer.
    deployment.network.script["query", "leaf"] = "transport-error"
    deployment.cluster.query(G2_SENSORS, at_site="top")


def _delegate(deployment):
    deployment.cluster.delegate(G0, "leaf")


def _delegate_under_update(deployment):
    # One update lands at mid while its adopt request is on the wire: it
    # is held and forwarded to leaf once the hand-off commits.
    fired = []

    def inject(src, dst, message):
        if message.kind == "adopt" and not fired:
            fired.append(True)
            deployment.agent("mid").handle_message(_update("s0", "77"))

    deployment.network.interceptors.append(inject)
    deployment.cluster.delegate(G0, "leaf")


def _straggler_update(deployment):
    # After a move a stale sensor proxy still addresses mid, which
    # forwards per fresh DNS.
    deployment.agent("mid").handle_message(_update("s1", "78"))


#: name -> (asker, peer, wire kind, gated, drive, set-up or None)
EXCHANGES = {
    "subquery": ("top", "mid", "query", True, _ask_subquery, None),
    "batch": ("top", "mid", "batch-query", True, _ask_batch, None),
    "partial-aggregate": ("top", "mid", "partial-agg", True,
                          _ask_partial_aggregate, None),
    "failover": ("top", "mid", "query", True, _ask_failover, None),
    "adopt": ("mid", "leaf", "adopt", False, _delegate, None),
    "held-update": ("mid", "leaf", "update", False, _delegate_under_update,
                    None),
    "forwarded-update": ("mid", "leaf", "update", False, _straggler_update,
                         _delegate),
}
OUTCOMES = ("ok", "retryable-error", "fatal-error", "transport-error",
            "wrong-reply-kind", "handler-raises")


def _drive(deployment, drive):
    """Run one exchange; what it raises on a refusal is not the point
    here (a loopback handler's ``CoreError`` surfaces raw, a failed
    adoption is a ``MigrationError``, ...)."""
    try:
        drive(deployment)
    except (CoreError, NetError, OSError):
        pass


class TestGuardedRequest:
    """Every remote call an agent makes is one ``agent.request``."""

    @pytest.mark.parametrize("transport", ["loopback", "tcp"])
    @pytest.mark.parametrize("outcome", OUTCOMES)
    @pytest.mark.parametrize("exchange", sorted(EXCHANGES))
    def test_exactly_one_outcome_per_send(self, exchange, outcome,
                                          transport):
        asker, peer, kind, gated, drive, prepare = EXCHANGES[exchange]
        with Deployment(transport, prepare) as deployment:
            if outcome == "handler-raises":
                # Escapes the loopback transport raw; over TCP the
                # server turns it into a ``handler-error`` reply.
                def crash(message):
                    raise CoreError("scripted handler crash")

                victim = deployment.agent(peer)
                for message_class in list(victim._handlers):
                    if message_class.kind == kind:
                        victim._handlers[message_class] = crash
            elif outcome != "ok":
                deployment.network.script[kind, peer] = outcome
            # Start from an open circuit whose reset timeout has passed:
            # a gated send is then the half-open probe.
            deployment.trip(asker, peer)
            deployment.now = 10.0
            outcomes = deployment.count_outcomes(asker)

            _drive(deployment, drive)

            sent = deployment.sent(asker)
            assert (peer, kind) in sent
            assert len(outcomes) == len(sent)
            recorded = [name for site, name in outcomes if site == peer]
            assert len(recorded) == len(
                [1 for dst, _kind in sent if dst == peer])
            if outcome == "ok":
                assert set(recorded) == {"record_success"}
            else:
                assert "record_failure" in recorded
            # No probe is left in flight, whoever sent it.
            breaker = deployment.breaker(asker, peer)
            assert breaker.snapshot()["probes"] == (1 if gated else 0)
            assert not breaker._probe_in_flight
            assert breaker.state == (CLOSED if outcome == "ok" else OPEN)

    @pytest.mark.parametrize("transport", ["loopback", "tcp"])
    @pytest.mark.parametrize("exchange", sorted(EXCHANGES))
    def test_open_circuit_refuses_exactly_the_gated_kinds(self, exchange,
                                                          transport):
        asker, peer, kind, gated, drive, prepare = EXCHANGES[exchange]
        with Deployment(transport, prepare) as deployment:
            deployment.trip(asker, peer)  # and the clock stands still
            _drive(deployment, drive)
            reached_the_wire = (peer, kind) in deployment.sent(asker)
            assert reached_the_wire == (not gated)
            fast_fails = deployment.agent(asker).stats["circuit_fast_fails"]
            assert (fast_fails > 0) == gated
            # An ungated exchange that went through closed the circuit.
            assert deployment.breaker(asker, peer).state == \
                (OPEN if gated else CLOSED)

    def test_probe_answered_by_an_error_message_reopens_the_circuit(self):
        """Regression: the replication failover path took the half-open
        probe and recorded no outcome when the replica answered with an
        ``ErrorMessage``, so the peer's circuit read ``half-open`` with
        a probe in flight for good -- for ordinary subqueries too."""
        with Deployment("loopback") as deployment:
            top = deployment.agent("top")
            deployment.trip("top", "mid")
            deployment.now = 10.0
            deployment.network.script["query", "mid"] = "retryable-error"
            _ask_failover(deployment)
            assert top.health_snapshot()["mid"]["state"] == OPEN
            assert top.health_snapshot()["mid"]["probes"] == 1

            # mid heals and the reset timeout passes: the next query
            # that needs it is the probe, and it closes the circuit.
            deployment.network.script.clear()
            deployment.now = 20.0
            results, _, outcome = deployment.cluster.query(
                G0_SENSORS, at_site="top")
            assert outcome.complete and len(results) == 2
            assert top.health_snapshot()["mid"]["state"] == CLOSED
            assert top.health_snapshot()["mid"]["fast_failures"] == 0
            assert top.health.allow("mid")

    def test_probe_answered_by_a_raising_handler_reopens_the_circuit(self):
        """Regression: on loopback a remote handler's ``CoreError``
        escaped the dispatch with no outcome recorded; taken as the
        half-open probe it left the healed site answered "circuit for
        site 'mid' is open" for ever.  The error still surfaces."""
        with Deployment("loopback") as deployment:
            top, mid = deployment.agent("top"), deployment.agent("mid")
            deployment.trip("top", "mid")
            deployment.now = 10.0
            answer_any = mid.driver.answer_any

            def corrupt(query, now=None):
                raise CoreError("fragment store is corrupt")

            mid.driver.answer_any = corrupt
            with pytest.raises(CoreError):
                deployment.cluster.query(G0_SENSORS, at_site="top")
            assert top.health_snapshot()["mid"]["state"] == OPEN

            mid.driver.answer_any = answer_any
            deployment.now = 20.0
            results, _, outcome = deployment.cluster.query(
                G0_SENSORS, at_site="top")
            assert outcome.complete and len(results) == 2
            assert top.health_snapshot()["mid"]["state"] == CLOSED
            assert top.health.allow("mid")

    def test_refused_partial_aggregate_counts_one_breaker_failure(self):
        """Regression: the aggregation manager recorded a success before
        it looked for an ``ErrorMessage``, so a site shedding load was
        healthy to aggregation and failing to the gather at once."""
        with Deployment("loopback") as deployment:
            outcomes = deployment.count_outcomes("top")
            deployment.network.script["partial-agg", "mid"] = \
                "retryable-error"
            _ask_partial_aggregate(deployment)
            # (The naive fallback's failover then asks spare, mid's
            # ring peer: a success recorded against spare.)
            assert [outcome for outcome in outcomes
                    if outcome[0] == "mid"] == [("mid", "record_failure")]
            snapshot = deployment.agent("top").health_snapshot()["mid"]
            assert snapshot["state"] == OPEN
            assert snapshot["consecutive_failures"] == 1

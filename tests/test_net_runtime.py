"""Unit tests for per-site delivery ordering and ownership helpers."""

import threading

import pytest

from repro.core import (
    CoreError,
    Status,
    export_local_information,
    get_status,
    relinquish_ownership,
)
from repro.net import AckMessage, LoopbackNetwork, QueryMessage

from tests.conftest import OAKLAND


class _SlowAgent:
    def __init__(self, delay_event):
        self.delay_event = delay_event
        self.active = 0
        self.max_active = 0
        self.lock = threading.Lock()

    def handle_message(self, message):
        with self.lock:
            self.active += 1
            self.max_active = max(self.max_active, self.active)
        self.delay_event.wait(0.05)
        with self.lock:
            self.active -= 1
        return AckMessage(message.message_id, ok=True)


class TestLockingNetwork:
    """:class:`LoopbackNetwork` takes no lock; the site guard orders a
    site's messages."""

    def test_serializes_per_site(self, paper_cluster):
        network = LoopbackNetwork()
        event = threading.Event()
        slow = _SlowAgent(event)
        agent = paper_cluster.agent("top")
        agent._dispatch_message = slow.handle_message
        network.register("busy", agent)

        threads = [
            threading.Thread(
                target=lambda: network.request("c", "busy",
                                               QueryMessage("/a")))
            for _ in range(4)
        ]
        for thread in threads:
            thread.start()
        event.set()
        for thread in threads:
            thread.join()
        assert slow.max_active == 1  # never concurrent at one site

    def test_different_sites_run_in_parallel(self):
        network = LoopbackNetwork()
        barrier = threading.Barrier(2, timeout=5)

        class _BarrierAgent:
            def handle_message(self, message):
                barrier.wait()  # both sites must be inside concurrently
                return AckMessage(message.message_id, ok=True)

        network.register("a", _BarrierAgent())
        network.register("b", _BarrierAgent())
        threads = [
            threading.Thread(target=lambda d=d: network.request("c", d,
                                                                QueryMessage("/x")))
            for d in ("a", "b")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()  # would deadlock if sites serialized globally

    def test_reentrant_delivery_does_not_deadlock(self):
        network = LoopbackNetwork()

        class _SelfAskingAgent:
            def handle_message(self, message):
                if message.query == "/outer":
                    # A handler asking its own site back through the
                    # network re-enters the lock it is served under.
                    return network.request("s", "s", QueryMessage("/inner"))
                return AckMessage(message.message_id, ok=True)

        network.register("s", _SelfAskingAgent())
        replies = []
        thread = threading.Thread(
            target=lambda: replies.append(
                network.request("c", "s", QueryMessage("/outer"))),
            daemon=True)
        thread.start()
        thread.join(5)
        assert not thread.is_alive()
        assert replies and replies[0].ok

    def test_delivery_takes_no_lock_of_its_own(self):
        network = LoopbackNetwork()
        barrier = threading.Barrier(2, timeout=5)

        class _GuardlessAgent:
            def handle_message(self, message):
                barrier.wait()  # two messages inside one site at once
                return AckMessage(message.message_id, ok=True)

        network.register("s", _GuardlessAgent())
        threads = [
            threading.Thread(target=lambda: network.request(
                "c", "s", QueryMessage("/x")))
            for _ in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not barrier.broken

    def test_repeated_close_is_idempotent(self):
        network = LoopbackNetwork()
        network.close()
        network.close()


class TestOwnershipHelpers:
    def test_export_requires_ownership(self, paper_doc, paper_plan):
        dbs = paper_plan.partition(paper_doc)[1]
        with pytest.raises(CoreError):
            export_local_information(dbs["top"], [OAKLAND])

    def test_export_accept_relinquish_roundtrip(self, paper_doc,
                                                paper_plan):
        dbs = paper_plan.partition(paper_doc)[1]
        fragment = export_local_information(dbs["oak"], [OAKLAND])
        dbs["etna"].store_fragment(fragment)
        assert get_status(dbs["etna"].find(OAKLAND)) is Status.COMPLETE
        dbs["etna"].mark_owned(OAKLAND)
        relinquish_ownership(dbs["oak"], OAKLAND)
        assert get_status(dbs["etna"].find(OAKLAND)) is Status.OWNED
        assert get_status(dbs["oak"].find(OAKLAND)) is Status.COMPLETE

    def test_exported_fragment_is_cacheable(self, paper_doc, paper_plan):
        from repro.core import fragment_violations

        dbs = paper_plan.partition(paper_doc)[1]
        fragment = export_local_information(dbs["oak"], [OAKLAND])
        assert fragment_violations(fragment, paper_doc) == []


class TestEvictAllCached:
    def test_evicts_only_cached(self, paper_doc, paper_plan):
        from repro.core import compile_pattern, run_qeg

        dbs = paper_plan.partition(paper_doc)[1]
        query = ("/usRegion[@id='NE']/state[@id='PA']"
                 "/county[@id='Allegheny']/city[@id='Pittsburgh']"
                 "/neighborhood[@id='Oakland']")
        remote = run_qeg(dbs["oak"], compile_pattern(query))
        dbs["top"].store_fragment(remote.answer)
        assert get_status(dbs["top"].find(OAKLAND)) is Status.COMPLETE

        evicted = dbs["top"].evict_all_cached()
        assert evicted >= 1
        assert get_status(dbs["top"].find(OAKLAND)) is Status.INCOMPLETE
        # Owned data untouched.
        city = dbs["top"].find(OAKLAND[:-1])
        assert get_status(city) is Status.OWNED

    def test_noop_on_pristine_database(self, paper_doc, paper_plan):
        dbs = paper_plan.partition(paper_doc)[1]
        assert dbs["top"].evict_all_cached() == 0

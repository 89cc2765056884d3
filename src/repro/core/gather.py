"""The gather driver: iterate QEG until the answer is complete.

An organizing agent answers a query by looping:

1. run QEG over the local database (owned + cached data);
2. send every emitted subquery to the responsible remote site
   (via the caller-supplied ``send`` function);
3. merge the returned wire fragments back in (into the real database
   when caching is enabled -- the paper's aggressive caching -- or into
   a throwaway overlay otherwise);
4. repeat until QEG emits no subqueries.

For nesting depth 0 the loop converges in one round against owners
whose own answers are complete; deeper rounds occur for nesting
depth > 0 (fetch the subtree, then evaluate).

The last round's walk is the answer: its gap-free final-step matches,
copied clean, are the user's result.  Freshness is the walk's alone: the
driver passes it the *vouched* elements -- data this gather merged from
a reply, or served under ``stale_on_error`` -- and any other copy too
old for its bound is asked for again.  Every ask goes out exactly as the
walk wrote it, carrying the caller's own bound, so every reply vouches
for what it carries; an answered ask is not repeated, so a copy the
owner's reply left out matches nothing.
"""

import threading

from repro.core.database import SensorDatabase
from repro.core.errors import CoreError
from repro.core.executors import resolve_executor
from repro.core.idable import iter_idable, iter_idable_with_paths
from repro.core.answer import Subquery
from repro.core.qeg import CompiledPattern, compile_pattern, run_qeg
from repro.core.semcache import (
    SemanticCache,
    canonicalization_stats,
    canonicalize,
)
from repro.core.status import clean_copy, get_status
from repro.obs.tracing import TRACER, propagate
from repro.xpath.analysis import anchor_id_path
from repro.xpath.ast import FunctionCall, LocationPath, VariableReference
from repro.xpath.evaluator import Evaluator
from repro.xpath import parser as xpath_parser

_EVALUATOR = Evaluator()

#: Scalar wrappers an agent accepts around an absolute location path.
SCALAR_WRAPPERS = ("boolean", "count", "sum", "string", "number")


class GatherError(CoreError):
    """Raised when gathering fails to converge."""


class SubqueryFailure:
    """Terminal failure of one subquery dispatch (returned, not raised).

    The network layer hands this back through ``send``/``send_many``
    when a subquery exhausts its retry budget; the driver records it,
    stops re-asking, and degrades the answer instead of raising.
    ``causes`` lists what every attempt saw, last entry last.
    """

    __slots__ = ("subquery", "attempts", "causes", "stale_served",
                 "replica_too_stale")

    def __init__(self, subquery, attempts, causes=()):
        self.subquery = subquery
        self.attempts = attempts
        self.causes = [str(cause) for cause in causes]
        #: Set by the driver when ``stale_on_error`` served the cached
        #: copy of this region beyond its freshness bound.
        self.stale_served = False
        #: Set by the replication layer when a replica held a copy of
        #: the region but its stamp violated the query's freshness
        #: bound -- the region is still excised from the answer, the
        #: completeness report just says *why* failover refused it.
        self.replica_too_stale = False

    @property
    def id_path(self):
        return self.subquery.anchor_path

    @property
    def cause(self):
        return self.causes[-1] if self.causes else ""

    def report(self):
        # ``scalar`` stays in the wire shape of completeness reports;
        # a subquery is never scalar.
        return {
            "id_path": [list(entry) for entry in self.subquery.anchor_path],
            "query": self.subquery.query,
            "scalar": False,
            "attempts": self.attempts,
            "causes": list(self.causes),
        }

    def __repr__(self):
        return (f"SubqueryFailure({self.subquery.query!r}, "
                f"attempts={self.attempts}, cause={self.cause!r})")


class ReplicaServed:
    """A subquery answered from a replica after its owner failed.

    Returned through ``send``/``send_many`` (like
    :class:`SubqueryFailure`, but carrying data): the replication
    layer verified the replica's stamp against the subquery's
    freshness bound before handing this back, so the driver merges
    ``fragment`` exactly as an owner answer -- and the completeness
    report annotates the region ``served_by_replica`` instead of
    counting it against completeness.
    """

    __slots__ = ("subquery", "fragment", "replica", "owner", "age")

    def __init__(self, subquery, fragment, replica, owner, age=0.0):
        self.subquery = subquery
        self.fragment = fragment
        self.replica = replica
        self.owner = owner
        self.age = float(age)

    @property
    def id_path(self):
        return self.subquery.anchor_path

    def report(self):
        return {
            "id_path": [list(entry) for entry in self.subquery.anchor_path],
            "query": self.subquery.query,
            "replica": self.replica,
            "owner": self.owner,
            "age": round(self.age, 3),
        }

    def __repr__(self):
        return (f"ReplicaServed({self.subquery.query!r}, "
                f"replica={self.replica!r}, owner={self.owner!r}, "
                f"age={self.age:g})")


class GatherOutcome:
    """Everything a gather run produced, for answering and accounting.

    ``failures`` holds one :class:`SubqueryFailure` per subquery that
    exhausted its budget; an outcome with only ``stale_served``
    failures still counts as *complete* (every region is represented,
    some beyond its freshness bound), which
    :meth:`completeness_report` spells out for machine consumption.
    """

    def __init__(self, result, rounds, subqueries_sent, view, failures=(),
                 replica_served=()):
        self._result = result  # the last round's QEGResult
        self.rounds = rounds
        self.subqueries_sent = subqueries_sent
        self.view = view  # the database the last round walked
        self.failures = list(failures)
        #: One :class:`ReplicaServed` per subquery answered by a
        #: replica instead of its (dead) owner.  The regions are fully
        #: represented -- the answer stays *complete* -- but the report
        #: names the replica and the copy's age.
        self.replica_served = list(replica_served)

    @property
    def wire_answer(self):
        """The generalized fragment a replying site ships (built on
        first read; a user query's site never reads it)."""
        return self._result.answer

    @property
    def matches(self):
        """The last round's gap-free final-step matches (in the view)."""
        return self._result.matches

    @property
    def used_remote_data(self):
        return bool(self.subqueries_sent)

    @property
    def complete(self):
        """Whether every queried region is represented in the answer."""
        return not any(not failure.stale_served
                       for failure in self.failures)

    @property
    def unreachable_paths(self):
        """Sorted, deduplicated anchor id-paths of unserved failures."""
        return tuple(sorted({failure.subquery.anchor_path
                             for failure in self.failures
                             if not failure.stale_served}))

    def completeness_report(self):
        """The machine-readable partial-answer contract.

        ``unreachable`` lists regions absent from the answer (with the
        subquery, attempt count and per-attempt causes);
        ``stale_served`` lists regions served from cache beyond their
        freshness bound under ``stale_on_error``;
        ``served_by_replica`` lists regions a replica answered for a
        dead owner (fresh per the query's bound -- still complete);
        ``replica_too_stale`` lists regions a replica held but refused
        to serve because its copy violated the bound (still excised,
        like ``unreachable``, with the refusal spelled out).
        """
        return {
            "complete": self.complete,
            "unreachable": [failure.report() for failure in self.failures
                            if not failure.stale_served
                            and not failure.replica_too_stale],
            "stale_served": [failure.report() for failure in self.failures
                             if failure.stale_served],
            "served_by_replica": [served.report()
                                  for served in self.replica_served],
            "replica_too_stale": [failure.report()
                                  for failure in self.failures
                                  if failure.replica_too_stale],
        }


def _is_path_prefix(shorter, longer):
    return len(shorter) <= len(longer) and \
        tuple(longer[:len(shorter)]) == tuple(shorter)


def _subsumed_by(pending, answered, pattern):
    """Whether an answered ask already covered *pending*'s data.

    An answered subquery's generalized reply is authoritative for the
    whole region its query selects; a later, narrower ask along the
    same pattern (deeper anchor, correspondingly more items consumed,
    no ``//`` ambiguity in between) can only select a subset of that
    region and therefore needs no new round-trip -- whatever it would
    fetch either arrived already or provably does not exist.
    """
    for earlier in answered:
        if not _is_path_prefix(earlier.anchor_path, pending.anchor_path):
            continue
        if earlier.subtree:
            return True
        if pending.subtree:
            continue
        if earlier.descendant_gap or pending.descendant_gap:
            continue
        if earlier.consumed is None or pending.consumed is None:
            continue
        depth_gap = len(pending.anchor_path) - len(earlier.anchor_path)
        if pending.consumed - earlier.consumed != depth_gap:
            continue
        between = pattern.items[earlier.consumed:pending.consumed]
        if any(item.descendant for item in between):
            continue
        return True
    return False


def _merge(view, fragment, vouched, handed_over=False):
    """Merge a reply into *view*, adding to a *vouched* set every node
    whose local information it carried (a node it only names is not).
    The merge leaves the reply's IDable skeleton and statuses behind."""
    view.store_fragment(fragment, handed_over=handed_over)
    if vouched is not None:
        vouched.update(view.find(path) for path, node
                       in iter_idable_with_paths(fragment)
                       if get_status(node).has_local_information)


class GatherDriver:
    """Drives QEG-plus-subqueries for one site.

    *send* is a callable ``send(subquery) -> Element | None``
    implementing remote delivery (DNS lookup + transport); ``None``
    means the remote had nothing.  *cache_results* controls whether
    gathered fragments are merged into the site database (the paper's
    default) or into a per-query overlay.

    Each round's pending subqueries are independent, so they are
    dispatched concurrently through *executor* (the shared threaded
    executor by default; pass ``"serial"`` or a
    :class:`~repro.core.executors.SerialExecutor` for strictly
    sequential dispatch).  *send_many*, when given, overrides the
    executor for whole rounds: it receives the round's pending
    subqueries and returns their replies in the same order -- the hook
    the network layer uses to batch asks per destination site.
    Regardless of dispatch order, replies are merged back in subquery
    emission order, so gathered answers are identical under any
    executor.
    """

    MAX_ROUNDS = 12

    def __init__(self, database, send, schema=None, cache_results=True,
                 executor=None, send_many=None, stale_on_error=False):
        self.database = database
        self.send = send
        self.schema = schema
        self.cache_results = cache_results
        self.executor = resolve_executor(executor)
        self.send_many = send_many
        self.stale_on_error = stale_on_error
        #: Scalar answers of this site, stamped with the database clock.
        self.aggregates = SemanticCache()
        self._stats_lock = threading.Lock()
        self.stats = {
            "queries": 0,
            "rounds": 0,
            "subqueries_sent": 0,
            "local_hits": 0,
            "max_fanout": 0,
            "failed_subqueries": 0,
            "partial_gathers": 0,
            "stale_served": 0,
            "prewarm_queries": 0,
            "replica_served": 0,
        }

    # ------------------------------------------------------------------
    def compile(self, query):
        if isinstance(query, CompiledPattern):
            return query
        return compile_pattern(query, schema=self.schema)

    def _view(self):
        if self.cache_results:
            return self.database
        overlay = SensorDatabase(
            self.database.root.copy(),
            clock=self.database.clock,
            site_id=self.database.site_id,
        )
        return overlay

    # ------------------------------------------------------------------
    def gather(self, query, now=None):
        """Gather everything *query* needs; returns a :class:`GatherOutcome`."""
        site = self.database.site_id
        with TRACER.span("gather", site=site) as gather_span:
            with TRACER.span("parse", site=site):
                pattern = self.compile(query)
            gather_span.set_tag("query", pattern.source)
            if now is None:
                now = self.database.clock()
            view = self._view()
            # Elements, not id()s: one evicted mid-gather keeps its
            # place here, so no other node can take its number.
            vouched = set()
            answered = []
            answered_keys = set()
            sent = []
            failures = []
            replica_served = []
            rounds = 0
            max_fanout = 0
            result = None
            for rounds in range(1, self.MAX_ROUNDS + 1):
                with TRACER.span("qeg", site=site) as qeg_span:
                    qeg_span.set_tag("round", rounds)
                    result = run_qeg(view, pattern, now=now, vouched=vouched)
                # A subquery whose answer was already merged is resolved
                # -- and so is any narrower ask it subsumes: the
                # remote's generalized answer is authoritative for
                # everything its query could yield, so data still
                # missing locally (e.g. ID stubs that failed the
                # predicate remotely) simply does not match.
                pending = [sq for sq in result.subqueries
                           if sq.query not in answered_keys
                           and not _subsumed_by(sq, answered, pattern)]
                if not pending:
                    break
                max_fanout = max(max_fanout, len(pending))
                # Fan the round out (possibly in parallel / batched),
                # then merge the replies back in emission order: the
                # merged view -- and hence the final answer -- never
                # depends on reply arrival order.
                with TRACER.span("subquery-dispatch", site=site) as dspan:
                    dspan.set_tag("round", rounds)
                    dspan.set_tag("fanout", len(pending))
                    replies = self._dispatch_round(pending)
                with TRACER.span("merge", site=site) as merge_span:
                    merge_span.set_tag("round", rounds)
                    for subquery, reply in zip(pending, replies):
                        sent.append(subquery)
                        answered_keys.add(subquery.query)
                        if isinstance(reply, ReplicaServed):
                            # A replica answered for the dead owner; the
                            # replication layer already checked its
                            # stamp against the ask's freshness bound,
                            # so the fragment merges like any owner
                            # answer.
                            replica_served.append(reply)
                            answered.append(subquery)
                            if reply.fragment is not None:
                                _merge(view, reply.fragment, vouched)
                            continue
                        if isinstance(reply, SubqueryFailure):
                            # Terminal failure: record it, never re-ask
                            # (the key above suppresses re-emission),
                            # and degrade.  Deliberately NOT appended to
                            # ``answered``: a failed fetch is not
                            # authoritative for anything, so it must not
                            # subsume narrower asks.
                            self._note_failure(reply, subquery, view,
                                               vouched)
                            failures.append(reply)
                            continue
                        answered.append(subquery)
                        if reply is not None:
                            # An owner reply is this gather's alone
                            # (built for the ask, or decoded off the
                            # wire), so the merge may take its nodes.
                            _merge(view, reply, vouched, handed_over=True)
            else:
                raise GatherError(
                    f"gathering {pattern.source!r} did not converge within "
                    f"{self.MAX_ROUNDS} rounds"
                )
            gather_span.set_tag("rounds", rounds)
            gather_span.set_tag("subqueries", len(sent))
            with self._stats_lock:
                self.stats["queries"] += 1
                self.stats["rounds"] += rounds
                self.stats["subqueries_sent"] += len(sent)
                self.stats["max_fanout"] = max(self.stats["max_fanout"],
                                               max_fanout)
                if not sent:
                    self.stats["local_hits"] += 1
                self.stats["failed_subqueries"] += len(failures)
                self.stats["stale_served"] += sum(
                    1 for failure in failures if failure.stale_served)
                if any(not failure.stale_served for failure in failures):
                    self.stats["partial_gathers"] += 1
                self.stats["replica_served"] += len(replica_served)
            return GatherOutcome(result, rounds, sent, view,
                                 failures=failures,
                                 replica_served=replica_served)

    def _note_failure(self, failure, subquery, view, vouched):
        """Classify a terminal failure: stale-servable or unreachable.

        The freshness relaxation only applies to STALE-reason asks --
        the cached copy of the region is fully materialized, merely
        older than the query's consistency bound -- and only when the
        driver opted into ``stale_on_error``; the region is then vouched
        for, so the walk serves it.  Everything else stays unreachable:
        the walk keeps asking for it, and so never matches it.
        """
        if not self.stale_on_error or subquery.reason != Subquery.STALE:
            return
        anchor = view.find(subquery.anchor_path)
        if anchor is not None and \
                get_status(anchor).has_local_information:
            failure.stale_served = True
            vouched.update(iter_idable(anchor))

    def _dispatch_round(self, pending):
        """Send one round's subqueries; replies come back in input order."""
        if len(pending) == 1:
            return [self.send(pending[0])]
        if self.send_many is not None:
            return self.send_many(pending)
        # Executor threads do not inherit the caller's contextvars, so
        # carry the active span across explicitly: without this, spans
        # opened inside ``send`` would start fresh traces.
        return self.executor.map(propagate(self.send), pending)

    # ------------------------------------------------------------------
    def answer_user_query(self, query, now=None):
        """Answer a user query: ``(results, outcome)``.

        *results* are clean copies (no ``status``) of the last QEG
        round's gap-free final-step matches -- the XPath answer.  A
        region whose fetch failed is asked for to the end and so
        matches nothing, unless ``stale_on_error`` served it.
        """
        outcome = self.gather(query, now=now)
        return [clean_copy(match) for match in outcome.matches], outcome

    def answer_subquery(self, query, now=None):
        """Answer a subquery from a peer site: the generalized wire fragment."""
        outcome = self.gather(query, now=now)
        return outcome.wire_answer

    def answer_scalar(self, query, now=None, max_age=None):
        """Answer a scalar query: a supported wrapper around an inner path.

        Supports ``boolean(p)``, ``count(p)``, ``sum(p)``, ``string(p)``
        and ``number(p)`` where ``p`` is an absolute location path:
        the inner path is gathered distributedly and the wrapper is
        applied to the last walk's matches -- what a user query for
        ``p`` returns.  A freshness bound in ``p`` decides what is
        fetched, never what is counted.

        An answer is cached under its answer key (freshness bounds
        stripped), as of ``now`` minus its tightest bound, and served
        to a later caller whose own bound that satisfies.  *max_age*
        (seconds) opts into the paper's "acceptable precision"
        extension (Section 4) on top: a caller holding a fractional
        tolerance ``p`` for an aggregate that drifts at most ``r`` per
        second asks with ``max_age = p / r``.  Only the value of a
        complete gather with nothing served stale is cached: a partial
        count would otherwise be served as the whole one after the
        missing site recovers.
        """
        canon = canonicalize(query)
        ast = canon.ast
        if not (
            isinstance(ast, FunctionCall)
            and ast.name in SCALAR_WRAPPERS
            and len(ast.arguments) == 1
            and isinstance(ast.arguments[0], LocationPath)
            and ast.arguments[0].absolute
        ):
            raise CoreError(
                f"unsupported scalar query {query!r}: expected "
                f"{'/'.join(SCALAR_WRAPPERS)} around an absolute path"
            )
        if now is None:
            now = self.database.clock()
        with TRACER.span("cache-lookup",
                         site=self.database.site_id) as lookup_span:
            cached = self.aggregates.lookup(
                canon.answer_key, now, bound=canon.min_tolerance,
                max_age=max_age)
            lookup_span.set_tag("hit", cached is not None)
        if cached is not None:
            return cached.value
        outcome = self.gather(ast.arguments[0], now=now)
        value = _EVALUATOR.evaluate(
            FunctionCall(ast.name, [VariableReference("matches")]),
            outcome.view.root, variables={"matches": outcome.matches},
            now=now)
        # A failure is a region either excised or served stale: neither
        # value may outlive this answer.
        if not outcome.failures:
            bound = canon.min_tolerance
            self.aggregates.store(
                canon.answer_key, value, now, region=anchor_id_path(ast),
                as_of=now - bound if bound is not None else None)
        return value

    def note_prewarm(self):
        """Account one replayed prewarm query (see semcache.prewarm)."""
        with self._stats_lock:
            self.stats["prewarm_queries"] += 1

    def semcache_counters(self):
        """Semantic-cache counters for the metrics registry / EXPLAIN.

        Per-site: the driver's prewarm counter and the aggregate cache's
        hit/miss/byte figures.  The canonicalizer memo is
        process-wide and tagged as such.
        """
        with self._stats_lock:
            counters = {"prewarm_queries": self.stats["prewarm_queries"]}
        counters["aggregate"] = self.aggregates.metrics()
        counters["canonicalizer"] = dict(canonicalization_stats(),
                                         scope="process")
        return counters

    def answer_any(self, query, now=None):
        """Dispatch a query string to subquery/scalar handling.

        Used by the network layer when a message arrives from a peer.
        """
        ast = xpath_parser.parse_cached(query)
        if isinstance(ast, LocationPath):
            return self.answer_subquery(ast, now=now)
        return self.answer_scalar(ast, now=now)

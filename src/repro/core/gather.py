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

The last round's walk is the answer: its gap-free final-step matches
are the user's result (copied clean for a user in this process, lent to
a reply otherwise).  Freshness is the walk's alone: the
driver passes it the *vouched* elements -- data this gather merged from
a reply -- and any other copy too old for its bound is asked for
again.  Every ask goes out exactly as the
walk wrote it, carrying the caller's own bound, so every reply vouches
for what it carries; an answered ask is not repeated, so a copy the
owner's reply left out matches nothing.
"""

import threading

from repro.core.answer import private_copy
from repro.core.database import SensorDatabase
from repro.core.errors import CoreError, UnsupportedDistributedQueryError
from repro.core.qeg import CompiledPattern, compile_pattern, run_qeg
from repro.core.semcache import canonicalize
from repro.core.status import clean_copy
from repro.obs.tracing import TRACER
from repro.xmlkit.nodes import Element
from repro.xpath.ast import FunctionCall, LocationPath, VariableReference
from repro.xpath.evaluator import Evaluator

_EVALUATOR = Evaluator()

#: Scalar wrappers an agent accepts around an absolute location path.
SCALAR_WRAPPERS = ("boolean", "count", "sum", "string", "number")


class GatherError(CoreError):
    """Raised when gathering fails to converge."""


class SubqueryFailure:
    """Terminal failure of one subquery dispatch (returned, not raised).

    The network layer hands this back through ``send`` when a
    subquery exhausts its retry budget; the driver records it, stops
    re-asking, and degrades the answer instead of raising.
    ``causes`` lists what every attempt saw, last entry last.
    """

    __slots__ = ("subquery", "attempts", "causes", "replica_too_stale")

    def __init__(self, subquery, attempts, causes=()):
        self.subquery = subquery
        self.attempts = attempts
        self.causes = [str(cause) for cause in causes]
        #: Set by read failover when a ring peer held a copy of the
        #: region too old for the ask's own freshness bound -- the
        #: region is still excised from the answer, the completeness
        #: report just says *why* failover refused it.
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


class PartialReply:
    """A peer's reply lacking regions the peer could not reach: its
    fragment (``None``: nothing) and one :class:`SubqueryFailure` per
    missing region.  The driver merges the fragment and records the
    failures, and the reply subsumes no narrower ask."""

    __slots__ = ("fragment", "failures")

    def __init__(self, fragment, failures):
        self.fragment = fragment
        self.failures = list(failures)


def hand_over(reply):
    """*reply* -- a built fragment, ``None``, a :class:`PartialReply` or
    a scalar -- as a receiver in the serving site's process may keep
    it: a fragment lends stored subtrees, so they are swapped for
    copies and its skeleton kept
    (:func:`~repro.core.answer.private_copy`), under the serving site's
    guard."""
    if isinstance(reply, PartialReply):
        return PartialReply(hand_over(reply.fragment), reply.failures)
    if isinstance(reply, Element):
        return private_copy(reply)
    return reply


class GatherOutcome:
    """Everything a gather run produced, for answering and accounting.

    ``failures`` holds one :class:`SubqueryFailure` per subquery that
    exhausted its budget, which :meth:`completeness_report` spells out
    for machine consumption.
    """

    def __init__(self, result, rounds, subqueries_sent, view, failures=()):
        self._result = result  # the last round's QEGResult
        self.rounds = rounds
        self.subqueries_sent = subqueries_sent
        self.view = view  # the database the last round walked
        self.failures = list(failures)
        #: The asks a replica answered instead of their (dead) owner
        #: (``served_by`` tagged).  The regions are fully represented --
        #: the answer stays *complete* -- but the report names the
        #: replica and the copy's age.
        self.replica_served = [subquery for subquery in subqueries_sent
                               if subquery.served_by is not None]

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
        return not self.failures

    @property
    def unreachable_paths(self):
        """Sorted, deduplicated anchor id-paths of the failures."""
        return tuple(sorted({failure.subquery.anchor_path
                             for failure in self.failures}))

    def completeness_report(self):
        """The machine-readable partial-answer contract.

        ``unreachable`` lists regions absent from the answer (with the
        subquery, attempt count and per-attempt causes);
        ``served_by_replica`` lists regions a replica answered for a
        dead owner (fresh per the query's bound -- still complete);
        ``replica_too_stale`` lists regions a replica held but refused
        to serve because its copy violated the bound (still excised,
        like ``unreachable``, with the refusal spelled out).
        """
        return {
            "complete": self.complete,
            "unreachable": [failure.report() for failure in self.failures
                            if not failure.replica_too_stale],
            "served_by_replica": [dict(subquery.served_by)
                                  for subquery in self.replica_served],
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
    A handed-over reply is left holding the IDable nodes *view* already
    held, gutted, as the sender wrote them (:meth:`store_fragment`)."""
    carried = view.store_fragment(fragment, handed_over=handed_over)
    if vouched is not None:
        vouched.update(carried)


class GatherDriver:
    """Drives QEG-plus-subqueries for one site.

    *send* implements remote delivery (DNS lookup + transport): it
    takes one round -- the list of that round's pending subqueries,
    which are independent -- and returns their replies in the same
    order, each a wire fragment, ``None`` when the remote had nothing,
    a :class:`PartialReply`, or a :class:`SubqueryFailure`.  How it
    dispatches them (one at a time, batched per destination, from
    worker threads) is its own business: replies are merged back in
    subquery emission order, so gathered answers never depend on it.
    *cache_results* controls whether gathered fragments are merged into
    the site database (the paper's default) or into a per-query overlay.
    """

    MAX_ROUNDS = 12

    def __init__(self, database, send, schema=None, cache_results=True):
        self.database = database
        self.send = send
        #: Always ``None``: ``send`` takes whole rounds.  Kept because the
        #: layer harness (``benchmarks/layers/spans.py``) wraps this
        #: attribute, with ``send``, by name on every driver.
        self.send_many = None
        self.schema = schema
        self.cache_results = cache_results
        self._stats_lock = threading.Lock()
        self.stats = {
            "queries": 0,
            "rounds": 0,
            "subqueries_sent": 0,
            "local_hits": 0,
            "max_fanout": 0,
            "failed_subqueries": 0,
            "partial_gathers": 0,
            "replica_served": 0,
        }

    # ------------------------------------------------------------------
    def compile(self, query):
        if isinstance(query, CompiledPattern):
            return query
        return compile_pattern(query, schema=self.schema)

    def _overlay(self):
        """A private copy of the database for a gather that may not
        cache what it fetches to merge into."""
        return SensorDatabase(
            self.database.root.copy(),
            clock=self.database.clock,
            site_id=self.database.site_id,
        )

    # ------------------------------------------------------------------
    def gather(self, query, now=None, send=None, ships=True):
        """Gather everything *query* needs; returns a :class:`GatherOutcome`.

        *send*, when given, delivers this gather's rounds in place of the
        driver's own ``send`` (a caller that answers some asks itself, as
        the aggregation rollup does).  *ships* false: the caller never
        reads ``wire_answer`` (``None`` then), so no walk records one."""
        site = self.database.site_id
        with TRACER.span("gather", site=site) as gather_span:
            with TRACER.span("parse", site=site):
                pattern = self.compile(query)
            if TRACER.enabled:  # a new text's source is unparsed on demand
                gather_span.set_tag("query", pattern.source)
            if now is None:
                now = self.database.clock()
            # A walk only reads: without result caching the copy is
            # taken when there is a first reply to merge.
            view = self.database
            # Elements, not id()s: one evicted mid-gather keeps its
            # place here, so no other node can take its number.
            vouched = set()
            answered = []
            answered_keys = set()
            sent = []
            failures = []
            rounds = 0
            max_fanout = 0
            result = None
            for rounds in range(1, self.MAX_ROUNDS + 1):
                with TRACER.span("qeg", site=site) as qeg_span:
                    qeg_span.set_tag("round", rounds)
                    result = run_qeg(view, pattern, now=now, vouched=vouched,
                                     ships=ships)
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
                if view is self.database and not self.cache_results:
                    view = self._overlay()
                max_fanout = max(max_fanout, len(pending))
                # Hand the round to ``send`` (which may batch it or fan
                # it out in parallel), then merge the replies back in
                # emission order: the merged view -- and hence the final
                # answer -- never depends on reply arrival order.
                with TRACER.span("subquery-dispatch", site=site) as dspan:
                    dspan.set_tag("round", rounds)
                    dspan.set_tag("fanout", len(pending))
                    replies = (send or self.send)(pending)
                with TRACER.span("merge", site=site) as merge_span:
                    merge_span.set_tag("round", rounds)
                    for subquery, reply in zip(pending, replies):
                        sent.append(subquery)
                        answered_keys.add(subquery.query)
                        if isinstance(reply, SubqueryFailure):
                            # Terminal failure: record it, never re-ask
                            # (the key above suppresses re-emission),
                            # and degrade.  Deliberately NOT appended to
                            # ``answered``: a failed fetch is not
                            # authoritative for anything, so it must not
                            # subsume narrower asks.
                            failures.append(reply)
                            continue
                        if isinstance(reply, PartialReply):
                            # What did arrive merges; each region the
                            # peer could not reach fails here too, and
                            # is not asked for again.
                            failures.extend(reply.failures)
                            answered_keys.update(
                                failure.subquery.query
                                for failure in reply.failures)
                            reply = reply.fragment
                        else:
                            answered.append(subquery)
                        if reply is not None:
                            # A reply is this gather's alone (built for
                            # the ask, or decoded off the wire, whoever
                            # answered it), so the merge may take its
                            # nodes, and what it leaves is released here.
                            _merge(view, reply, vouched, handed_over=True)
                            reply.dispose()
            else:
                raise GatherError(
                    f"gathering {pattern.source!r} did not converge within "
                    f"{self.MAX_ROUNDS} rounds"
                )
            gather_span.set_tag("rounds", rounds)
            gather_span.set_tag("subqueries", len(sent))
            outcome = GatherOutcome(result, rounds, sent, view,
                                    failures=failures)
            with self._stats_lock:
                self.stats["queries"] += 1
                self.stats["rounds"] += rounds
                self.stats["subqueries_sent"] += len(sent)
                self.stats["max_fanout"] = max(self.stats["max_fanout"],
                                               max_fanout)
                if not sent:
                    self.stats["local_hits"] += 1
                self.stats["failed_subqueries"] += len(failures)
                if failures:
                    self.stats["partial_gathers"] += 1
                self.stats["replica_served"] += len(outcome.replica_served)
            return outcome

    # ------------------------------------------------------------------
    def answer_user_query(self, query, now=None):
        """Answer a user query: ``(results, outcome)``.

        *results* are clean copies (no ``status``) of the last QEG
        round's gap-free final-step matches -- the XPath answer.  A
        region whose fetch failed is asked for to the end and so
        matches nothing.
        """
        outcome = self.gather(query, now=now, ships=False)
        return [clean_copy(match) for match in outcome.matches], outcome

    def answer_subquery(self, query, now=None):
        """Answer a subquery from a peer site: the generalized wire
        fragment, in a :class:`PartialReply` when a region failed."""
        outcome = self.gather(query, now=now)
        if outcome.failures:
            return PartialReply(outcome.wire_answer, outcome.failures)
        return outcome.wire_answer

    def answer_unforwarded(self, query, now=None):
        """Answer a subquery from this site's fragment alone, forwarding
        no ask: ``(wire fragment, left)``, *left* the sorted reasons of
        the asks the walk would have sent (``Subquery.STALE``: a copy
        too old for the ask's own bound).  A dead owner's ring peer
        answers read failover's ``no_forward`` asks this way."""
        outcome = self.gather(query, now=now, send=lambda pending: [
            SubqueryFailure(subquery, 0, ["not forwarded"])
            for subquery in pending])
        left = {failure.subquery.reason for failure in outcome.failures}
        return outcome.wire_answer, tuple(sorted(left))

    def answer_scalar(self, query, now=None):
        """Answer a scalar query by the walk: a supported wrapper around
        an inner path.

        Supports ``boolean(p)``, ``count(p)``, ``sum(p)``, ``string(p)``
        and ``number(p)`` where ``p`` is an absolute location path:
        the inner path is gathered distributedly and the wrapper is
        applied to the last walk's matches -- what a user query for
        ``p`` returns.  A freshness bound in ``p`` decides what is
        fetched, never what is counted.  Nothing is cached here but the
        gathered data: a site's scalar answers are its aggregation
        summaries (:mod:`repro.agg`).
        """
        ast = canonicalize(query).ast
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
        outcome = self.gather(ast.arguments[0], now=now, ships=False)
        return _EVALUATOR.evaluate(
            FunctionCall(ast.name, [VariableReference("matches")]),
            outcome.view.root, variables={"matches": outcome.matches},
            now=now)

    def answer_any(self, query, now=None):
        """Dispatch a query string to subquery/scalar handling: a query
        the compile memo takes is a path, any other a scalar.

        Used by the network layer when a message arrives from a peer.
        """
        try:
            pattern = compile_pattern(query, schema=self.schema)
        except UnsupportedDistributedQueryError:
            return self.answer_scalar(query, now=now)
        return self.answer_subquery(pattern, now=now)

"""The organizing agent (OA): the per-site query/update/cache processor.

Each site runs one OA.  It owns part of the document, caches what
passes through it (aggressive query-driven caching, Section 3.3),
answers user queries and subqueries via the gather driver, applies or
forwards sensor updates, and takes part in ownership migrations.
"""

import threading
from collections import deque

from repro.core.errors import CoreError
from repro.core.executors import SerialExecutor, resolve_executor
from repro.core.gather import GatherDriver, SubqueryFailure
from repro.core.idable import id_path_of, idable_children
from repro.core.ownership import relinquish_ownership
from repro.core.evolution import add_idable_child, remove_idable_child
from repro.core.status import Status, get_status
from repro.net.continuous import ContinuousQueryManager
from repro.net.errors import (
    CircuitOpenError,
    MigrationError,
    NameNotFound,
    NetError,
    RemoteError,
)
from repro.net.load import PathLoadTracker
from repro.net.messages import (
    AckMessage,
    AdoptMessage,
    AnswerMessage,
    BatchAnswerMessage,
    BatchQueryMessage,
    ErrorMessage,
    MigrateReleaseMessage,
    QueryMessage,
    UpdateMessage,
)
from repro.net.retry import (
    DEFAULT_RETRY_POLICY,
    BreakerPolicy,
    Deadline,
    SiteHealthTracker,
)
from repro.net.subsystem import SITE_HOOKS, HookTable
from repro.obs.tracing import TRACER, attach_context, propagate


_SERIAL = SerialExecutor()


class OAConfig:
    """Tunables for an organizing agent.

    The query plan itself has no knobs: subqueries fetch the smallest
    cacheable superset of their answer, and a nested predicate fetches
    the subtree at the earliest tag it references (Sections 3.3, 4).

    ``cache_results``
        merge gathered fragments into the site database (the paper's
        default aggressive caching) or use a per-query overlay;
    ``executor``
        how one gather round's subqueries are dispatched: ``None`` (the
        default shared thread executor -- one WAN round-trip per
        round), ``"serial"`` for strictly sequential dispatch
        (deterministic timing; the simulator forces this and models
        parallelism in virtual time), or any object with a
        ``map(fn, items)`` method.  Answers are identical under every
        executor; only wall-clock dispatch differs.
    ``retry_policy``
        the :class:`~repro.net.retry.RetryPolicy` governing subquery
        dispatch (``None`` for the shared default).  On the success
        path the policy is invisible: no extra wire messages, byte-
        identical answers.  A subquery that exhausts its budget never
        raises through the gather: its region is marked unreachable,
        the answer carries what *is* reachable, and the outcome's
        completeness report says which regions are missing and why.
    ``breaker``
        the per-peer circuit breaker every remote call of this agent
        goes through (see :meth:`OrganizingAgent.request`):
        a :class:`~repro.net.retry.BreakerPolicy`, ``None`` for the
        default, or ``False`` to disable breaking entirely.
    ``stale_on_error``
        serve a fully-cached region beyond its freshness bound when
        its refresh fails terminally -- an explicit relaxation of the
        paper's query-based consistency (Section 4), reported under
        ``stale_served`` in the completeness report.  Off by default.
    ``subsystems``
        config objects of the opt-in subsystems this agent runs (read
        replication, hierarchical aggregation, the load balancer, ...;
        see :mod:`repro.net.subsystem`).  Each config builds its own
        per-agent part; a subsystem is on iff its config is listed, and
        with none listed (the default) the wire is byte-identical to a
        build without any of them.
    """

    def __init__(self, cache_results=True, executor=None, retry_policy=None,
                 breaker=None, stale_on_error=False, subsystems=()):
        self.cache_results = cache_results
        self.executor = executor
        self.retry_policy = retry_policy
        self.breaker = breaker
        self.stale_on_error = stale_on_error
        self.subsystems = tuple(subsystems)


class OrganizingAgent:
    """One site's manager process."""

    def __init__(self, site_id, database, network, resolver, schema=None,
                 config=None, clock=None, durability=None):
        self.site_id = site_id
        if durability is not None and database is None:
            # Startup recovery: rebuild the partition from the site's
            # checkpoint + WAL instead of a caller-provided fragment.
            database = durability.recover(clock=clock, site_id=site_id)
        if database is None:
            raise CoreError(
                f"OrganizingAgent {site_id!r} needs a database (or a "
                "durability manager with recoverable state)")
        self.database = database
        if durability is not None:
            # From here on every mutation the database commits -- the
            # update path, the gather's cache fills, evictions,
            # ownership flips -- lands on the WAL before it is
            # acknowledged.
            durability.attach(database)
        self.network = network
        self.resolver = resolver
        self.schema = schema
        self.config = config or OAConfig()
        self.clock = clock or database.clock
        self.executor = resolve_executor(self.config.executor)
        self.retry_policy = self.config.retry_policy or DEFAULT_RETRY_POLICY
        breaker = self.config.breaker
        self.health = (
            None if breaker is False
            else SiteHealthTracker(breaker or BreakerPolicy())
        )
        self.driver = GatherDriver(
            database,
            send=self._send_subquery,
            schema=schema,
            cache_results=self.config.cache_results,
            executor=self.executor,
            send_many=self._send_subqueries,
            stale_on_error=self.config.stale_on_error,
        )
        #: Per-anchor served-query counters (always on: strictly local
        #: state, no wire traffic, no clock reads).
        self.load = PathLoadTracker()
        #: Wire retries for one migration's adopt exchange and for
        #: forwarding its held updates (adoption is idempotent).
        self.adopt_attempts = 3
        #: Migration-in-progress bookkeeping: while a region is being
        #: handed off, updates to it are applied locally (this site
        #: still owns it) *and* recorded, then forwarded to the new
        #: owner once the hand-off commits -- no update is blocked,
        #: shed, or lost across the window.
        self._migrating = ()
        self._held_updates = []
        self._migration_lock = threading.Lock()
        #: Recent migrations touching this site (both directions), for
        #: EXPLAIN's "ownership moved" annotations.
        self.migration_log = deque(maxlen=32)
        self.stats = {
            "user_queries": 0,
            "subqueries_served": 0,
            "updates_applied": 0,
            "updates_forwarded": 0,
            "subqueries_sent": 0,
            "batches_sent": 0,
            "migrations_out": 0,
            "migrations_in": 0,
            "migrations_aborted": 0,
            "migrations_released": 0,
            "held_updates_forwarded": 0,
            "held_updates_lost": 0,
            "migration_cache_evictions": 0,
            "retries": 0,
            "subquery_failures": 0,
            "circuit_fast_fails": 0,
            "dns_refreshes": 0,
        }
        self._handlers = {
            QueryMessage: self._handle_query,
            BatchQueryMessage: self._handle_batch,
            UpdateMessage: self._handle_update,
            AdoptMessage: self._handle_adopt,
            MigrateReleaseMessage: self._handle_migrate_release,
        }
        self._subsystems = HookTable(SITE_HOOKS)
        self.continuous = ContinuousQueryManager(self)
        self._register(self.continuous)
        if durability is not None:
            # A storage dependency first (it supplied the database
            # above), a subsystem second: its flush / close / abort /
            # metrics ride the same hooks as everyone else's.
            self._register(durability)
        for subsystem_config in self.config.subsystems:
            subsystem = subsystem_config.site_subsystem(self)
            if subsystem is not None:
                self._register(subsystem)

    # ------------------------------------------------------------------
    # Subsystems (see repro.net.subsystem)
    # ------------------------------------------------------------------
    def _register(self, subsystem):
        self._subsystems.register(subsystem)
        handlers = getattr(subsystem, "handlers", None)
        if handlers is not None:
            self._handlers.update(handlers())

    def subsystem(self, name):
        """The registered subsystem called *name*, or ``None``."""
        return self._subsystems.by_name.get(name)

    @property
    def subsystems(self):
        """``{name: subsystem}`` in registration order (a copy)."""
        return dict(self._subsystems.by_name)

    def notify_update(self, id_path):
        """Tell every subsystem an owned node at *id_path* changed."""
        self._subsystems.fire("on_update", id_path)

    # ------------------------------------------------------------------
    # Outgoing subqueries
    # ------------------------------------------------------------------
    def resolve_owner(self, id_path, refresh=False):
        """The site responsible for the node at *id_path*, or ``None``
        when DNS retired the node.

        A missing record means the node was deleted (schema evolution)
        and our stub is a transient leftover: authoritative DNS says it
        no longer exists, so the subquery answers "nothing" -- exactly
        the transient inconsistency Section 4 accepts.

        With *refresh* the cached entry is dropped first and resolution
        goes back to the authoritative server -- between retry attempts
        the cache may be the problem (the owner migrated or was
        delegated away and our entry is stale).
        """
        name = self.resolver.server.name_for(id_path)
        if refresh:
            self.resolver.invalidate(name)
            self.stats["dns_refreshes"] += 1
        try:
            target, _hops = self.resolver.resolve(name)
        except NameNotFound:
            return None
        return target

    def _send_subquery(self, subquery):
        """Route a QEG subquery to the responsible site and await the reply."""
        target = self.resolve_owner(subquery.anchor_path)
        if target is None:
            return None
        self.stats["subqueries_sent"] += 1
        return self._dispatch_with_retry(target, [subquery])[0]

    def _send_subqueries(self, subqueries):
        """One gather round's fan-out: batch per destination, in parallel.

        Resolves every subquery's responsible site, groups the remote
        ones by destination (one :class:`BatchQueryMessage` -- a single
        framed request -- per site with several asks), dispatches the
        per-site groups concurrently through the configured executor,
        and returns the replies in input order for the driver's
        deterministic merge.  Each group runs through the retry layer;
        terminal failures come back as per-subquery
        :class:`~repro.core.gather.SubqueryFailure` sentinels.
        """
        replies = [None] * len(subqueries)
        groups = {}
        for index, subquery in enumerate(subqueries):
            target = self.resolve_owner(subquery.anchor_path)
            if target is None:
                continue
            self.stats["subqueries_sent"] += 1
            if target == self.site_id:
                # Ownership race or self-anchored fetch: answer locally.
                replies[index] = self.driver.answer_any(subquery.query)
            else:
                groups.setdefault(target, []).append(index)
        if not groups:
            return replies
        self.stats["batches_sent"] += sum(
            1 for indices in groups.values() if len(indices) > 1
        )

        def ship(entry):
            target, indices = entry
            return self._dispatch_with_retry(
                target, [subqueries[i] for i in indices])

        executor = self.executor
        if self.network.requires_serial_dispatch:
            # E.g. the simulator's tracing network builds one RPC tree
            # on a plain stack; concurrent dispatch would corrupt it.
            executor = _SERIAL
        grouped = sorted(groups.items())
        for (_target, indices), group_replies in zip(
                grouped, executor.map(propagate(ship), grouped)):
            for index, reply in zip(indices, group_replies):
                replies[index] = reply
        return replies

    # -- the guarded request ----------------------------------------------
    def request(self, target, message, expect, gated=True,
                span="send-request"):
        """Send *message* to the peer *target* and return its reply.

        The one place this agent puts a request on the wire; subquery
        dispatch, the subsystems' asks and the migration exchanges all
        come through here and get the same four things:

        - **the gate**: while the peer's circuit is open the send is
          refused locally (:class:`CircuitOpenError`, counted under
          ``circuit_fast_fails``) and nothing touches the wire;
        - **the span**: a span named *span* around the exchange, its
          context stamped on the message (no-ops while tracing is off);
        - **one error shape**: an :class:`ErrorMessage` reply raises
          :class:`RemoteError` (code / detail / ``retryable`` / site), a
          reply that is not an *expect* raises :class:`NetError`, and
          transport errors pass through;
        - **exactly one breaker outcome** per send the gate let through,
          whatever is raised on the way.  A reply of the expected kind
          is a success, whatever the caller then makes of its contents
          (a declined adoption is a healthy peer saying no).  All else
          is a failure: a transport error, a structured error (the peer
          is shedding load or cannot serve this), a wrong reply kind,
          an exception escaping a loopback handler.

        *gated* is the one distinction between callers.  Asks with
        somewhere else to go pass the gate: subqueries, partial-
        aggregate asks and rehydrate asks degrade to a partial answer,
        the naive path or the next replica.  Migration exchanges
        (adopt, held and forwarded updates) have no alternative peer --
        a refusal loses an ownership move or an update -- so they pass
        ``gated=False``: an open circuit does not refuse them, their
        outcomes are recorded all the same, and a successful one closes
        the circuit.
        """
        health = self.health
        if gated and health is not None and not health.allow(target):
            self.stats["circuit_fast_fails"] += 1
            raise CircuitOpenError(f"circuit for site {target!r} is open")
        answered = False
        try:
            with TRACER.span(span, site=self.site_id,
                             tags={"target": target}) as active:
                attach_context(message, active)
                reply = self.network.request(self.site_id, target, message)
                if isinstance(reply, ErrorMessage):
                    raise RemoteError(reply.code, reply.detail,
                                      retryable=reply.retryable, site=target)
                if not isinstance(reply, expect):
                    raise NetError(
                        f"site {target!r} replied {type(reply).__name__} "
                        f"to a {message.kind} request")
            answered = True
            return reply
        finally:
            if health is not None:
                if answered:
                    health.record_success(target)
                else:
                    health.record_failure(target)

    # -- the attempt loop ------------------------------------------------
    def _dispatch_with_retry(self, target, subqueries):
        """Ship one same-destination group, surviving what can be survived.

        Each attempt is one :meth:`request` (gate, error shape and
        breaker outcome are its business); a refusal, a transport error
        or a structured error counts against the attempt budget, and
        between attempts the anchor's DNS entry is invalidated and
        re-resolved so retries follow migrated or delegated owners.  On
        terminal failure a subsystem may answer in the owner's place;
        otherwise this returns one
        :class:`~repro.core.gather.SubqueryFailure` per subquery.  On
        the success path -- one attempt, closed breaker -- this adds no
        wire messages and no delays.
        """
        policy = self.retry_policy
        deadline = Deadline(policy.deadline)
        backoff_key = (self.site_id, target, subqueries[0].query)
        causes = []
        attempts = 0
        while True:
            attempts += 1
            if target == self.site_id:
                # Re-resolution brought the anchor home (adoption
                # completed mid-retry): answer locally.
                return [self.driver.answer_any(subquery.query)
                        for subquery in subqueries]
            try:
                return self._ship(target, subqueries)
            except CircuitOpenError as exc:
                causes.append(str(exc))
            except RemoteError as exc:
                causes.append(f"site {target!r}: {exc.code}: {exc.detail}")
                self.stats["subquery_failures"] += 1
                if not exc.retryable:
                    break
            except (OSError, NetError) as exc:
                causes.append(
                    f"site {target!r}: {type(exc).__name__}: {exc}")
                self.stats["subquery_failures"] += 1
            if attempts >= policy.max_attempts or deadline.expired:
                break
            delay = deadline.clamp(policy.backoff(attempts, backoff_key))
            if delay > 0:
                policy.sleep(delay)
            self.stats["retries"] += 1
            # The owner may have migrated (or our DNS entry gone stale
            # with a dead site): re-resolve through authoritative DNS
            # before the next attempt.
            new_targets = {
                self.resolve_owner(subquery.anchor_path, refresh=True)
                for subquery in subqueries
            }
            if len(new_targets) == 1:
                new_target = new_targets.pop()
                if new_target is None:
                    # DNS retired every node in the group: the regions
                    # no longer exist, which is an ordinary "nothing".
                    return [None] * len(subqueries)
                target = new_target
            else:
                # The group no longer shares one owner (a migration
                # landed mid-retry): finish each ask independently.
                return [self._redispatch(subquery)
                        for subquery in subqueries]
        for answer_for in self._subsystems.listeners["on_dispatch_failure"]:
            # The owner is terminally unreachable (budget exhausted or
            # breaker open): a subsystem may answer in its place.  Data
            # it vouches for merges like an owner answer; the rest come
            # back as ordinary failures with its refusals appended to
            # the causes.
            replies = answer_for(target, subqueries, attempts, causes)
            if replies is not None:
                return replies
        return [SubqueryFailure(subquery, attempts, causes)
                for subquery in subqueries]

    def _redispatch(self, subquery):
        """Restart one subquery on fresh DNS (post-divergence path)."""
        target = self.resolve_owner(subquery.anchor_path)
        if target is None:
            return None
        return self._dispatch_with_retry(target, [subquery])[0]

    def _ship(self, target, subqueries):
        """One wire exchange for a same-destination group: a ``query``
        for a single ask, one ``batch-query`` for several; returns the
        reply fragments in input order."""
        if len(subqueries) == 1:
            [subquery] = subqueries
            reply = self.request(
                target,
                QueryMessage(subquery.query, now=self.clock(),
                             sender=self.site_id),
                expect=AnswerMessage, span="send-subquery")
            return [reply.fragment]
        reply = self.request(
            target,
            BatchQueryMessage(
                [(subquery.query, False) for subquery in subqueries],
                now=self.clock(), sender=self.site_id),
            expect=BatchAnswerMessage, span="send-batch")
        if len(reply) != len(subqueries):
            raise NetError(
                f"site {target!r} answered {len(reply)} of "
                f"{len(subqueries)} batched subqueries"
            )
        return reply.answers

    # ------------------------------------------------------------------
    # Serving queries
    # ------------------------------------------------------------------
    def answer_user_query(self, query, now=None):
        """Answer a user query posed at this site.

        Returns ``(results, outcome)``; results are clean (no system
        attributes) detached elements.
        """
        self.stats["user_queries"] += 1
        self.load.record_query(query)
        with TRACER.span("user-query", site=self.site_id,
                         tags={"query": str(query)}):
            results, outcome = self.driver.answer_user_query(query, now=now)
        return results, outcome

    def handle_message(self, message):
        """Dispatch one incoming message; returns the reply message.

        Opens a ``handle-*`` span parented on the message's wire trace
        context (when present), so spans at the serving site link into
        the asking site's trace; the reply carries this span's context
        back for the sender's bookkeeping.
        """
        kind = type(message).__name__
        remote = getattr(message, "trace_ctx", None)
        with TRACER.span(f"handle-{kind}", site=self.site_id,
                         remote_parent=remote) as span:
            reply = self._dispatch_message(message)
            if reply is not None and reply.trace_ctx is None:
                attach_context(reply, span)
            return reply

    def _dispatch_message(self, message):
        handler = self._handlers.get(type(message))
        if handler is None:
            # A kind no part of this agent serves -- a reply kind sent
            # as a request, or the ask of a subsystem this site does
            # not run.  Refuse it once, structurally: the same request
            # will fail the same way, so it is not retryable.
            return ErrorMessage(
                message.message_id, code="unhandled-kind",
                detail=(f"site {self.site_id!r} runs no handler for "
                        f"{message.kind!r} messages"),
                retryable=False, sender=self.site_id)
        return handler(message)

    def _handle_query(self, message):
        self.load.record_query(message.query)
        if message.user:
            self.stats["user_queries"] += 1
            results, outcome = self.driver.answer_user_query(
                message.query, now=message.now
            )
            completeness = None
            if outcome is not None and (outcome.failures
                                        or outcome.replica_served):
                # Partial or replica-served answer: ship the machine-
                # readable report so the front-end knows exactly which
                # regions are missing or came from a replica.
                completeness = outcome.completeness_report()
            return AnswerMessage(message.message_id,
                                 results=results,
                                 completeness=completeness,
                                 sender=self.site_id)
        self.stats["subqueries_served"] += 1
        if message.scalar:
            scalar = self.answer_scalar(message.query, now=message.now)
            return AnswerMessage(message.message_id, scalar=scalar,
                                 sender=self.site_id)
        fragment = self.driver.answer_any(message.query, now=message.now)
        return AnswerMessage(message.message_id, fragment=fragment,
                             sender=self.site_id)

    def _handle_batch(self, message):
        """Answer a batched subquery: one reply per item, in order."""
        self.stats["subqueries_served"] += len(message.items)
        for query, _scalar in message.items:
            self.load.record_query(query)
        answers = []
        for query, scalar in message.items:
            if scalar:
                answers.append(("scalar",
                                self.answer_scalar(query,
                                                   now=message.now)))
            else:
                answers.append(self.driver.answer_any(query,
                                                      now=message.now))
        return BatchAnswerMessage(message.message_id, answers=answers,
                                  sender=self.site_id)

    def answer_scalar(self, query, now=None, max_age=None):
        """Answer a scalar query: the site-level scalar entry point.

        A subsystem may answer ahead of the gather driver (its
        ``try_scalar`` hook); every query none of them takes -- and
        every query while none is registered -- goes down the driver's
        ordinary scalar path unchanged: same arguments, same answers,
        same wire bytes.
        """
        for try_scalar in self._subsystems.listeners["try_scalar"]:
            handled, value = try_scalar(query, now=now, max_age=max_age)
            if handled:
                return value
        return self.driver.answer_scalar(query, now=now, max_age=max_age)

    # ------------------------------------------------------------------
    # Sensor updates
    # ------------------------------------------------------------------
    def _handle_update(self, message):
        element = self.database.find(message.id_path)
        if element is not None and get_status(element) is Status.OWNED:
            self.database.apply_update(message.id_path,
                                       attributes=message.attributes,
                                       values=message.values)
            self.stats["updates_applied"] += 1
            if self._migrating:
                # Mid-migration: this site still owns the node (the
                # commit has not happened), so the update was applied
                # normally above -- but the exported fragment predates
                # it, so it must also follow the data to the new owner
                # once the hand-off commits.
                self._note_held_update(message)
            self.notify_update(message.id_path)
            return AckMessage(message.message_id, ok=True,
                              sender=self.site_id)
        # Not owned here (e.g. a stale-DNS straggler after a migration):
        # forward to the current owner per the fresh DNS entry.
        name = self.resolver.server.name_for(message.id_path)
        self.resolver.invalidate(name)
        target, _hops = self.resolver.resolve(name)
        if target == self.site_id:
            raise CoreError(
                f"DNS says {self.site_id!r} owns {message.id_path} but the "
                "node is not stored as owned here"
            )
        self.stats["updates_forwarded"] += 1
        try:
            return self.request(target, message, expect=AckMessage,
                                gated=False)
        except RemoteError as exc:
            # The owner's refusal is the sensor's to act on: relay it.
            return ErrorMessage(message.message_id, code=exc.code,
                                detail=exc.detail, retryable=exc.retryable,
                                sender=exc.site)

    # ------------------------------------------------------------------
    # Ownership migration (Section 4)
    # ------------------------------------------------------------------
    def delegate(self, id_path, new_owner, dns_server):
        """Move ownership of the node at *id_path* (and the contiguous
        owned region below it) to *new_owner* -- live, with rollback.

        The paper's protocol (export, adopt, demote, DNS flip) plus
        the cover that makes it safe under traffic and faults:

        - **queries** are never blocked: this site owns the region
          until the commit, and keeps a complete demoted copy after
          it, so reads are answerable at every instant;
        - **updates** landing mid-hand-off are applied locally (still
          the owner) *and* recorded, then forwarded to the new owner
          after the commit -- nothing is shed or reordered past the
          exported fragment;
        - the **adopt exchange is retried** (adoption is idempotent:
          a reset that lost only the reply is healed by the resend);
        - on terminal failure a best-effort
          :class:`~repro.net.messages.MigrateReleaseMessage` tells the
          would-be adopter to demote anything it adopted, and this
          site **rolls back** -- it simply keeps ownership, held
          updates already applied.  If the release is lost too, the
          balancer's DNS-authority reconciliation demotes the loser;
        - the **commit point is the DNS flip** (in-process, cannot
          fail partway): after it, stale-DNS stragglers that still
          reach this site are forwarded per fresh DNS (updates) or
          answered from the demoted complete copy (queries);
        - after the commit, cached aggregates and summaries covering
          the migrated region are evicted (their invalidation feed --
          local updates -- just moved away) and every subsystem hears
          of the ownership change.
        """
        id_path = tuple(tuple(entry) for entry in id_path)
        element = self.database.find(id_path)
        if element is None or get_status(element) is not Status.OWNED:
            raise MigrationError(
                f"site {self.site_id!r} does not own {id_path}"
            )
        region = self._owned_region(element)
        paths = [tuple(tuple(e) for e in id_path_of(node)) for node in region]

        self._begin_migration(paths)
        committed = False
        try:
            fragment = self._export_region(region)
            try:
                reply = self._request_patiently(
                    new_owner,
                    AdoptMessage(paths, fragment, sender=self.site_id))
                refusal = None if reply.ok else reply.detail
            except (NetError, OSError) as exc:
                refusal = exc
            if refusal is not None:
                self._abort_migration(new_owner, paths)
                raise MigrationError(
                    f"site {new_owner!r} refused adoption: {refusal!r}"
                )
            for path in paths:
                relinquish_ownership(self.database, path)
            for path in paths:
                dns_server.remap(path, new_owner)
            committed = True
        finally:
            held = self._end_migration()
        self._forward_held_updates(new_owner, held)
        self._evict_migrated(paths)
        self._subsystems.fire("on_ownership_change", paths, gained=False,
                              peer=new_owner)
        self.stats["migrations_out"] += 1
        self.migration_log.append(
            {"direction": "out", "peer": new_owner, "paths": list(paths)})
        return paths

    def _request_patiently(self, target, message):
        """One migration exchange, tried up to ``adopt_attempts`` times.

        Returns the peer's :class:`AckMessage`; the last error is
        raised once the tries are spent or the peer's refusal says a
        resend cannot help.
        """
        tries = 0
        while True:
            tries += 1
            try:
                return self.request(target, message, expect=AckMessage,
                                    gated=False)
            except (NetError, OSError) as exc:
                refused_for_good = (isinstance(exc, RemoteError)
                                    and not exc.retryable)
                if refused_for_good or tries >= self.adopt_attempts:
                    raise

    def _begin_migration(self, paths):
        with self._migration_lock:
            self._migrating = tuple(paths)
            self._held_updates = []

    def _end_migration(self):
        with self._migration_lock:
            held, self._held_updates = self._held_updates, []
            self._migrating = ()
            return held

    def _note_held_update(self, message):
        path = message.id_path
        with self._migration_lock:
            if any(path[:len(prefix)] == prefix
                   for prefix in self._migrating):
                self._held_updates.append(
                    (path, dict(message.attributes), dict(message.values)))

    def _abort_migration(self, new_owner, paths):
        """Best-effort release after a failed adopt exchange.

        The dangerous failure is a *delivered* adopt whose reply was
        lost: the peer may now consider itself owner.  This site keeps
        ownership (rollback is "do nothing" -- held updates were
        applied locally), and the release tells the peer to demote.
        One-way and unacknowledged by design; the reconciliation pass
        covers the double-loss case.
        """
        release = MigrateReleaseMessage(list(paths), sender=self.site_id)
        self.network.tell(self.site_id, new_owner, release)
        self.stats["migrations_aborted"] += 1

    def _forward_held_updates(self, new_owner, held):
        """Replay updates recorded during the hand-off window."""
        for path, attributes, values in held:
            message = UpdateMessage(path, attributes=attributes,
                                    values=values, sender=self.site_id)
            try:
                self._request_patiently(new_owner, message)
            except (NetError, OSError):
                self.stats["held_updates_lost"] += 1
            else:
                self.stats["held_updates_forwarded"] += 1

    def _evict_migrated(self, paths):
        """Drop the scalar answers computed over a region that moved.

        Nothing invalidates a cached scalar on update -- only the
        caller's ``max_age`` bounds how old a served value may be -- so
        this is not about freshness.  The entries were computed while
        this site owned the region; evicting them makes the next ask
        gather again along the new ownership instead of answering from
        the old one.
        """
        evicted = self.driver.aggregates.evict_paths(paths)
        self.stats["migration_cache_evictions"] += evicted

    def _handle_migrate_release(self, message):
        """Demote paths adopted in a migration the old owner aborted."""
        released = 0
        for path in message.id_paths:
            element = self.database.find(path)
            if element is not None and get_status(element) is Status.OWNED:
                relinquish_ownership(self.database, path)
                released += 1
        if released:
            self.stats["migrations_released"] += 1
            self._subsystems.fire("on_ownership_change", message.id_paths,
                                  gained=False, peer=message.sender)
        return AckMessage(message.message_id, ok=True, detail=str(released),
                          sender=self.site_id)

    def _owned_region(self, element):
        """The contiguous owned subtree rooted at *element*."""
        region = []
        stack = [element]
        while stack:
            node = stack.pop()
            if get_status(node) is Status.OWNED:
                region.append(node)
                stack.extend(idable_children(node))
        return region

    def _export_region(self, region):
        from repro.core.answer import AnswerBuilder

        builder = AnswerBuilder(self.database)
        for node in region:
            builder.include_local_information(node)
        return builder.build()

    def _handle_adopt(self, message):
        try:
            self.database.store_fragment(message.fragment)
            for path in message.id_paths:
                self.database.mark_owned(path)
        except CoreError as exc:
            return AckMessage(message.message_id, ok=False, detail=str(exc),
                              sender=self.site_id)
        self.stats["migrations_in"] += 1
        self.migration_log.append(
            {"direction": "in", "peer": message.sender,
             "paths": list(message.id_paths)})
        self._subsystems.fire("on_ownership_change", message.id_paths,
                              gained=True, peer=message.sender)
        return AckMessage(message.message_id, ok=True, sender=self.site_id)

    # ------------------------------------------------------------------
    # Schema evolution (Section 4)
    # ------------------------------------------------------------------
    def add_node(self, parent_path, tag, identifier, attributes=None,
                 values=None, dns_server=None):
        """Add an IDable node under an owned parent; register its DNS
        entry (the node starts owned by this site)."""
        element = add_idable_child(self.database, parent_path, tag,
                                   identifier, attributes=attributes,
                                   values=values)
        if dns_server is not None:
            path = tuple(tuple(e) for e in parent_path) + \
                ((tag, identifier),)
            dns_server.register_id_path(path, self.site_id)
        if self.schema is not None:
            self.schema.register_child(parent_path[-1][0], tag)
        return element

    def remove_node(self, path, dns_server=None):
        """Remove an IDable node whose parent this site owns; retire
        the DNS entries of everything below it."""
        removed = remove_idable_child(self.database, path)
        if dns_server is not None:
            for removed_path in removed:
                dns_server.remove(dns_server.name_for(removed_path))
        return removed

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def engine_counters(self):
        """Hot-path engine counters for this site.

        Index hit/miss/rebuild numbers are genuinely per-site (they
        come from this site database's id-path index).  The
        serialization reuse numbers are a snapshot of the
        *process-wide* memo counters -- every OA in this process shares
        the serializer -- so they are tagged ``"scope": "process"`` and
        must not be summed across sites (aggregate them once at cluster
        level, as :func:`repro.obs.registry.engine_counters` does).
        They are best-effort under concurrency.
        """
        from repro.xmlkit.serializer import serialization_stats

        return {
            "index_hits": self.database.stats["index_hits"],
            "index_misses": self.database.stats["index_misses"],
            "index_rebuilds": self.database.stats["index_rebuilds"],
            "serialization": dict(serialization_stats(), scope="process"),
        }

    def flush(self):
        """Drain what subsystems buffer (the WAL) to disk."""
        self._subsystems.fire("flush")

    def shutdown(self, final_checkpoint=True):
        """Graceful local teardown: every subsystem closes (the journal
        drains, snapshots and detaches).

        Runtimes call this after their drain phase -- no requests may
        be in flight.
        """
        self._subsystems.fire("close", final_checkpoint=final_checkpoint)

    def abort(self):
        """Crash-style teardown: nothing is flushed or snapshotted."""
        self._subsystems.fire("abort")

    def health_snapshot(self):
        """Per-peer circuit-breaker state, ``{}`` when breaking is off."""
        if self.health is None:
            return {}
        return self.health.snapshot()

    def explain(self, query, analyze=False, now=None):
        """EXPLAIN *query* from this site's current cache state.

        Returns an :class:`~repro.obs.explain.ExplainReport`: the
        per-node QEG decisions and the subquery plan the gather driver
        would dispatch in its first round.  With *analyze* the gather
        actually runs and the dispatched subqueries are appended.
        """
        from repro.obs.explain import build_explain

        return build_explain(self, query, analyze=analyze, now=now)

    def metrics(self):
        """This site's unified metrics snapshot (one nested dict)."""
        from repro.obs.registry import site_metrics

        return site_metrics(self)

    def __repr__(self):
        return (
            f"OrganizingAgent({self.site_id!r}, "
            f"owns={len(self.database.owned_nodes())} nodes)"
        )

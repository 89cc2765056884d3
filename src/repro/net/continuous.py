"""Continuous queries (the extension sketched in Section 7).

"Continuous queries are an important class of queries that are natural
to a sensor database system.  Our architecture naturally allows us to
support continuous queries through the various data structures that we
maintain" -- and indeed nothing new is needed: a continuous query is an
ordinary XPATH query registered at its LCA's owner; whenever a sensor
update lands inside the query's region, the query is re-evaluated with
the existing gather machinery and the subscriber is notified if the
answer changed.

Scope (it is an extension sketch, like the paper's): a subscription
fires on updates processed by its hosting OA.  When the query's region
spans nodes owned elsewhere, their updates are seen on the next
re-evaluation triggered by a local update; full push-invalidations
would need downstream interest registration, which the paper defers to
its view-based semantic caching future work.
"""

import itertools

from repro.core.status import TIMESTAMP_ATTRIBUTE
from repro.obs.tracing import TRACER
from repro.xmlkit.compare import canonical_form
from repro.xpath import parser as xpath_parser
from repro.xpath.analysis import extract_id_path

_SEQUENCE = itertools.count(1)

#: What an update moves even when it leaves every value as it was.
_RESTAMPED = frozenset({TIMESTAMP_ATTRIBUTE})


class Subscription:
    """One registered continuous query.

    ``last_trace`` holds the trace context of the evaluation behind the
    most recent notification (``None`` while tracing is off), so a
    subscriber can pull the full distributed trace of the gather that
    produced what it was just told.
    """

    __slots__ = ("subscription_id", "query", "anchor_path", "callback",
                 "last_digest", "notifications", "last_trace")

    def __init__(self, query, anchor_path, callback):
        self.subscription_id = next(_SEQUENCE)
        self.query = query
        self.anchor_path = tuple(tuple(entry) for entry in anchor_path)
        self.callback = callback
        self.last_digest = None
        self.notifications = 0
        self.last_trace = None

    def covers(self, id_path):
        """Whether an update at *id_path* can affect this query.

        The query's region is the subtree below its pinned LCA prefix;
        an update inside that subtree (or to one of the LCA's ancestors'
        local information) may change the answer.
        """
        id_path = tuple(tuple(entry) for entry in id_path)
        shorter = min(len(self.anchor_path), len(id_path))
        return self.anchor_path[:shorter] == id_path[:shorter]

    def __repr__(self):
        return (
            f"Subscription(#{self.subscription_id}, {self.query!r}, "
            f"notified={self.notifications})"
        )


class ContinuousQueryManager:
    """Per-OA registry of continuous queries, driven by updates.

    Always on, and registered through the same seam as the opt-in
    subsystems (:mod:`repro.net.subsystem`): the agent reaches it via
    the ``on_update`` and ``metrics`` hooks.
    """

    name = "continuous"

    def __init__(self, agent):
        self.agent = agent
        self._subscriptions = {}
        self.stats = {"evaluations": 0, "notifications": 0,
                      "callback_errors": 0}

    def subscribe(self, query, callback, fire_immediately=True):
        """Register *query*; *callback(results)* runs on every change.

        With *fire_immediately* the callback also receives the initial
        answer right away.
        """
        ast = xpath_parser.parse(query)
        anchor_path = extract_id_path(ast)
        subscription = Subscription(query, anchor_path, callback)
        self._subscriptions[subscription.subscription_id] = subscription
        if fire_immediately:
            self._evaluate(subscription)
        return subscription.subscription_id

    def unsubscribe(self, subscription_id):
        self._subscriptions.pop(subscription_id, None)

    def __len__(self):
        return len(self._subscriptions)

    # ------------------------------------------------------------------
    def on_update(self, id_path):
        """Called by the OA after it applied a sensor update."""
        for subscription in list(self._subscriptions.values()):
            if subscription.covers(id_path):
                self._evaluate(subscription)

    def metrics(self):
        return dict(self.stats)

    def _evaluate(self, subscription):
        self.stats["evaluations"] += 1
        with TRACER.span(
                "continuous-eval", site=self.agent.site_id,
                tags={"query": subscription.query,
                      "subscription": subscription.subscription_id},
        ) as span:
            with self.agent.guard:
                results, _outcome = self.agent.driver.answer_user_query(
                    subscription.query)
            # The answer's data: a re-stamp that leaves every value as
            # it was is no change to notify.
            digest = tuple(sorted(
                canonical_form(r, ignore=_RESTAMPED)
                for r in results if hasattr(r, "tag")
            ))
            if digest != subscription.last_digest:
                subscription.last_digest = digest
                subscription.notifications += 1
                self.stats["notifications"] += 1
                # The callback runs under the evaluation span: anything
                # the subscriber traces links into the gather's trace.
                # A failing subscriber (e.g. a derived sensor whose
                # re-evaluation needs an unreachable site) must not
                # take the owner's update path down with it.
                subscription.last_trace = span.context
                try:
                    subscription.callback(results)
                except Exception:
                    self.stats["callback_errors"] += 1

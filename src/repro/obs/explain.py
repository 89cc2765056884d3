"""EXPLAIN: how a site would answer a query, without guessing.

``OrganizingAgent.explain(query)`` (and ``Cluster.explain``, which
adds routing) runs a real QEG pass over the site's current fragment
with an observer attached and reports

* the routed LCA (id path + owning site, cluster level),
* the per-IDable-node decisions QEG took -- ``owned`` / ``cache-hit``
  / ``stale`` / ``subquery`` / ``pruned`` -- in visit order, and
* the emitted subquery plan, each ask resolved to its target site.

The default mode touches no remote site: the plan is exactly what the
gather driver would dispatch in its first round from the current cache
state.  ``analyze=True`` additionally *runs* the gather and appends
what was actually dispatched (every round, every subquery, terminal
failures included) -- the live-system analogue of ``EXPLAIN ANALYZE``.

Reports render as text (:meth:`ExplainReport.render`) and as JSON
(:meth:`ExplainReport.to_dict` / :meth:`ExplainReport.to_json`).
"""

import json

from repro.core.answer import Subquery
from repro.core.gather import SubqueryFailure
from repro.core.idable import format_id_path, id_path_of
from repro.core.qeg import run_qeg
from repro.core.semcache import canonicalize
from repro.core.status import Status
from repro.xpath import parser as xpath_parser
from repro.xpath.analysis import anchor_id_path
from repro.xpath.ast import FunctionCall, LocationPath

#: Decision labels, the EXPLAIN vocabulary.
OWNED = "owned"
CACHE_HIT = "cache-hit"
STALE = "stale"
SUBQUERY = "subquery"
PRUNED = "pruned"
MATCH = "match"


class ExplainObserver:
    """Collects QEG decisions during an explain pass.

    Wired into :func:`repro.core.qeg.run_qeg` via its ``observer``
    hook: ``note_ask`` fires when a subquery is emitted, and
    ``note_decision`` fires after each IDable-node match attempt with
    the node, its status and the walker's outcome.
    """

    def __init__(self):
        self.decisions = []
        self._last_ask_reason = None

    def note_ask(self, subquery):
        self._last_ask_reason = subquery.reason

    def note_decision(self, node, status, outcome, item_index):
        if outcome == "ask":
            if self._last_ask_reason == Subquery.STALE:
                decision = STALE
            else:
                decision = SUBQUERY
        elif outcome == "no":
            decision = PRUNED
        elif status is Status.OWNED:
            decision = OWNED
        elif status is Status.COMPLETE:
            decision = CACHE_HIT
        else:
            decision = MATCH
        self.decisions.append({
            "id_path": [list(entry) for entry in id_path_of(node)],
            "status": status.value,
            "decision": decision,
            "item": item_index,
        })
        self._last_ask_reason = None


class ExplainReport:
    """The structured output of an EXPLAIN run."""

    def __init__(self, query, site, lca_path, decisions, plan,
                 local_results, routed_site=None, analyze=None,
                 cache=None):
        self.query = query
        self.site = site
        self.lca_path = tuple(tuple(entry) for entry in lca_path)
        self.decisions = decisions
        self.plan = plan
        self.local_results = local_results
        self.routed_site = routed_site
        self.analyze = analyze
        #: Semantic-cache view: canonical and answer keys, the tightest
        #: freshness bound, and the aggregate-cache entry under the
        #: answer key (empty when the query does not parse).
        self.cache = cache
        #: What the site's subsystems added through their ``explain``
        #: hook: ``{name: data}`` (the JSON view) and, per name, the
        #: text lines :meth:`render` prints for it.
        self.sections = {}
        self._section_lines = {}

    def add_section(self, name, data, lines):
        """Report *data* under *name* (``to_dict``) and *lines* in the
        text rendering (indented under the report)."""
        self.sections[name] = data
        self._section_lines[name] = list(lines)

    @property
    def complete_locally(self):
        """Whether the current cache state answers without the network."""
        return not self.plan

    def planned_queries(self):
        return [entry["query"] for entry in self.plan]

    def dispatched_queries(self):
        """Queries the analyzed gather actually sent (analyze mode)."""
        if self.analyze is None:
            return []
        return [entry["query"] for entry in self.analyze["dispatched"]]

    def to_dict(self):
        out = {
            "query": self.query,
            "site": self.site,
            "routed_site": self.routed_site,
            "lca_path": [list(entry) for entry in self.lca_path],
            "complete_locally": self.complete_locally,
            "local_results": self.local_results,
            "decisions": list(self.decisions),
            "plan": list(self.plan),
        }
        if self.cache is not None:
            out["cache"] = self.cache
        out.update(self.sections)
        if self.analyze is not None:
            out["analyze"] = self.analyze
        return out

    def to_json(self, indent=2):
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def render(self):
        """The text rendering (``psql``-style, one section per part)."""
        lines = [f"EXPLAIN {self.query}"]
        routed = self.routed_site or self.site
        lines.append(
            f"  routed to site {routed!r}"
            f" (LCA {format_id_path(self.lca_path) or '/'})")
        lines.append("  decisions:")
        if not self.decisions:
            lines.append("    (no IDable node matched)")
        for entry in self.decisions:
            path = format_id_path(entry["id_path"])
            lines.append(
                f"    {path:<50} {entry['status']:<12} "
                f"-> {entry['decision']}")
        if self.plan:
            lines.append("  subquery plan:")
            for entry in self.plan:
                target = entry["target"]
                where = f"@{target}" if target is not None else "@<retired>"
                lines.append(
                    f"    {where:<12} {entry['query']}"
                    f"  [{entry['reason']}]")
                for note in entry.get("notes", ()):
                    lines.append(f"    {'':<12} {note}")
        else:
            lines.append("  subquery plan: (none -- answerable locally)")
        if self.cache:
            lines.append("  semantic cache:")
            lines.append(f"    canonical: {self.cache['canonical_key']}")
            bound = self.cache["min_tolerance"]
            bound_text = f"  (bound {bound:g}s)" if bound is not None else ""
            lines.append(
                f"    answer:    {self.cache['answer_key']}{bound_text}")
            aggregate = self.cache.get("aggregate")
            if aggregate is not None:
                lines.append(
                    f"    aggregate: cached (age {aggregate['age']:g}s, "
                    f"hits {aggregate['hits']})")
        for section in self._section_lines.values():
            lines.extend(f"  {line}" for line in section)
        lines.append(f"  local results: {self.local_results}")
        if self.analyze is not None:
            a = self.analyze
            lines.append(
                f"  analyze: rounds={a['rounds']}"
                f" dispatched={len(a['dispatched'])}"
                f" complete={a['complete']}")
            for entry in a["dispatched"]:
                target = entry["target"]
                where = f"@{target}" if target is not None else "@<retired>"
                failed = " FAILED" if entry.get("failed") else ""
                lines.append(
                    f"    {where:<12} {entry['query']}"
                    f"  [{entry['reason']}]{failed}")
        return "\n".join(lines)

    def __repr__(self):
        return (f"ExplainReport({self.query!r}, site={self.site!r}, "
                f"plan={len(self.plan)} subqueries)")


class ExplainContext:
    """What a subsystem's ``explain(context)`` hook sees.

    ``agent`` / ``source`` (the query text) / ``now`` / ``lca_path``
    describe the run; ``entries`` are the plan entries (planned and,
    in analyze mode, dispatched) -- a hook may annotate them, e.g.
    append to an entry's ``notes`` for the text rendering;
    ``add_section(name, data, lines)`` is
    :meth:`ExplainReport.add_section`.
    """

    def __init__(self, agent, source, now, report, entries):
        self.agent = agent
        self.source = source
        self.now = now
        self.lca_path = report.lca_path
        self.entries = entries
        self.add_section = report.add_section


def _plan_entry(agent, subquery, failed=None):
    entry = {
        "query": subquery.query,
        "anchor_path": [list(e) for e in subquery.anchor_path],
        "reason": subquery.reason,
        "target": agent.resolve_owner(subquery.anchor_path),
    }
    if failed is not None:
        entry["failed"] = failed
    return entry


def _cache_section(driver, source, now):
    """The semantic-cache view of *source* for the report.

    Uses :meth:`SemanticCache.peek` so building an EXPLAIN never
    distorts the very hit/miss counters it reports.
    """
    try:
        canon = canonicalize(source)
    except Exception:
        return {}
    info = {
        "canonical_key": canon.key,
        "answer_key": canon.answer_key,
        "min_tolerance": canon.min_tolerance,
    }
    entry = driver.aggregates.peek(canon.answer_key)
    if entry is not None:
        info["aggregate"] = {
            "age": round(entry.age(now), 3),
            "hits": entry.hits,
        }
    return info


def build_explain(agent, query, analyze=False, now=None,
                  routed_site=None):
    """Build an :class:`ExplainReport` for *query* at *agent*.

    The explain pass is read-only: QEG walks the site fragment and the
    answer fragment it builds is discarded.  With *analyze* the real
    gather runs afterwards (merging results into the cache as any
    query would) and the dispatched subqueries are appended.
    """
    driver = agent.driver
    source = query if isinstance(query, str) else query.unparse()
    ast = xpath_parser.parse(query) if isinstance(query, str) else query
    if isinstance(ast, FunctionCall) and ast.arguments and \
            isinstance(ast.arguments[0], LocationPath):
        # A scalar wrapper gathers its inner path; explain that path
        # (the wrapper itself is evaluated locally over the result).
        ast = ast.arguments[0]
    pattern = driver.compile(ast)
    if now is None:
        now = agent.clock()
    observer = ExplainObserver()
    result = run_qeg(agent.database, pattern, now=now, observer=observer)
    plan = [_plan_entry(agent, subquery) for subquery in result.subqueries]
    analysis = None
    if analyze:
        outcome = driver.gather(pattern, now=now)
        failed_keys = {f.subquery.query for f in outcome.failures}
        analysis = {
            "rounds": outcome.rounds,
            "complete": outcome.complete,
            "has_answer": outcome.wire_answer is not None,
            "dispatched": [
                _plan_entry(
                    agent, subquery,
                    failed=subquery.query in failed_keys,
                )
                for subquery in outcome.subqueries_sent
                if not isinstance(subquery, SubqueryFailure)
            ],
        }
    report = ExplainReport(
        query=source,
        site=agent.site_id,
        lca_path=anchor_id_path(source) or (),
        decisions=observer.decisions,
        plan=plan,
        local_results=result.stats.get("results_local", 0),
        routed_site=routed_site,
        analyze=analysis,
        cache=_cache_section(driver, source, now),
    )
    entries = plan + (analysis["dispatched"] if analysis else [])
    context = ExplainContext(agent, source, now, report, entries)
    for subsystem in agent.subsystems.values():
        explain = getattr(subsystem, "explain", None)
        if explain is not None:
            explain(context)
    return report

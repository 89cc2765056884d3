"""The semantic query cache: canonical keys, answer keys, budgets.

Cache hit rate is the whole thesis of Cache-and-Query, but exact-string
cache keys fragment it: two spellings of the same XPATH, or freshness
bounds of ``now-28s`` vs ``now-30s``, miss each other entirely and
re-dispatch WAN subqueries.  This module supplies the pieces that make
the caches *semantic*:

**Canonicalization** (:func:`canonicalize`).  Equivalent queries are
rewritten to one normal form used as the cache key everywhere a query
string used to be: whitespace and quoting normalize in the unparser,
``timestamp``/``now`` sugar becomes the canonical function calls,
redundant ``.`` steps are dropped, predicates within a step (pure
conjunctive filters in this dialect -- ``position()``/``last()`` are
rejected at parse time) sort deterministically, commutative operator
chains (``or``/``and``/``|``) flatten, dedupe and sort, and
comparisons are mirrored so only ``>``/``>=`` remain with the
context-reference operand on the left.  Every rewrite is
semantics-preserving (hypothesis-verified: the canonical query
evaluates identically to the original over random documents).

**Answer keys** (:attr:`CanonicalQuery.answer_key`).  A freshness
bound decides what is fetched, never what is counted, so an answer is
keyed by the canonical text without its ``timestamp() >
current-time() - N`` conjuncts: ``now-28s`` and ``now-30s`` share one
entry.  The entry records ``as_of``, the earliest time all its data
was known current, and :meth:`SemanticCache.lookup` serves it only to a
caller whose own bound that time satisfies.

**The answer cache** (:class:`SemanticCache`).  One size-aware LRU
class with per-entry hit/byte counters holds every cached answer; each
entry carries the id path of the region it was computed over, so an
ownership change evicts by region (``evict_paths``).

**Prewarming** (:class:`QueryLog`, :func:`prewarm`).  A query log
captured by ``service.run_live`` replays against a cold cluster to
warm OA caches before traffic.

Everything reports through the metrics registry (see
``repro.obs.registry``) and shows up in EXPLAIN output.
"""

import json
import threading
from collections import OrderedDict

from repro.core.consistency import (
    consistency_tolerances,
    rewrite_consistency_sugar,
)
from repro.core.idable import id_paths_overlap
from repro.core.lru import LRUCache
from repro.xpath import parser as xpath_parser
from repro.xpath.ast import (
    BinaryOperation,
    FilterExpression,
    FunctionCall,
    Literal,
    LocationPath,
    NodeTypeTest,
    NumberLiteral,
    Step,
    UnaryMinus,
)

# ----------------------------------------------------------------------
# Canonicalization
# ----------------------------------------------------------------------
#: Operators whose operand order does not affect the result in this
#: dialect (no side effects, unordered node-sets).
_COMMUTATIVE_CHAINS = ("or", "and", "|")
_MIRROR = {"<": ">", "<=": ">="}
_SYMMETRIC = ("=", "!=")


def _is_redundant_self(step):
    return (
        step.axis == "self"
        and isinstance(step.node_test, NodeTypeTest)
        and step.node_test.node_type == "node"
        and not step.predicates
    )


def _flatten_chain(expression, operator):
    if isinstance(expression, BinaryOperation) and \
            expression.operator == operator:
        yield from _flatten_chain(expression.left, operator)
        yield from _flatten_chain(expression.right, operator)
    else:
        yield expression


def _is_literal(expression):
    return isinstance(expression, (Literal, NumberLiteral))


def _ordered_predicates(predicates):
    """Deduplicate and deterministically order a step's predicates.

    Predicates in this dialect are pure conjunctive filters (each node
    is kept iff every predicate is truthy; ``position()``/``last()``
    are rejected at parse time), so reordering is semantics-preserving.
    The sort key is the canonical text, so any spelling of the same
    predicate set keys identically.
    """
    seen = {}
    for predicate in predicates:
        seen.setdefault(predicate.unparse(), predicate)
    return [seen[text] for text in sorted(seen)]


def canonicalize_expression(expression):
    """Rewrite *expression* bottom-up into its canonical form.

    Semantics-preserving by construction; see the module docstring for
    the rewrite list.  The input tree is never mutated.
    """
    expression = rewrite_consistency_sugar(expression)
    return _canon(expression)


def _canon(node):
    if isinstance(node, LocationPath):
        steps = [
            _canon_step(step)
            for step in node.steps
            if not _is_redundant_self(step)
        ]
        return LocationPath(node.absolute, steps)
    if isinstance(node, FilterExpression):
        path = _canon(node.path) if node.path is not None else None
        return FilterExpression(
            _canon(node.primary),
            _ordered_predicates([_canon(p) for p in node.predicates]),
            path,
        )
    if isinstance(node, BinaryOperation):
        operator = node.operator
        left = _canon(node.left)
        right = _canon(node.right)
        if operator in _MIRROR:
            operator = _MIRROR[operator]
            left, right = right, left
        if operator in _SYMMETRIC:
            left, right = _order_symmetric(left, right)
        if operator in _COMMUTATIVE_CHAINS:
            rebuilt = BinaryOperation(operator, left, right)
            operands = _ordered_predicates(
                list(_flatten_chain(rebuilt, operator)))
            result = operands[0]
            for operand in operands[1:]:
                result = BinaryOperation(operator, result, operand)
            return result
        return BinaryOperation(operator, left, right)
    if isinstance(node, UnaryMinus):
        return UnaryMinus(_canon(node.operand))
    if isinstance(node, FunctionCall):
        return FunctionCall(node.name, [_canon(a) for a in node.arguments])
    return node


def _canon_step(step):
    return Step(step.axis, step.node_test,
                _ordered_predicates([_canon(p) for p in step.predicates]))


def _order_symmetric(left, right):
    """Canonical operand order for ``=`` / ``!=``.

    The context-reference side goes left, the literal right (so
    ``'yes' = available`` normalizes to the conventional
    ``available = 'yes'``); two operands of the same kind order by
    canonical text.
    """
    left_literal = _is_literal(left)
    right_literal = _is_literal(right)
    if left_literal and not right_literal:
        return right, left
    if right_literal and not left_literal:
        return left, right
    if right.unparse() < left.unparse():
        return right, left
    return left, right


class CanonicalQuery:
    """One query's canonical identity.

    ``key`` is the exact canonical text -- safe wherever the key must
    mean *precisely* this query (the compile cache).  ``answer_key`` is
    that text without the freshness bounds (see
    :func:`~repro.core.consistency.consistency_tolerances`): what the
    answer is, however fresh the caller needs it.  ``min_tolerance`` is
    the tightest of those bounds, or ``None`` without one.
    """

    __slots__ = ("source", "ast", "key", "answer_key", "min_tolerance")

    def __init__(self, source, ast, key, answer_key, min_tolerance):
        self.source = source
        self.ast = ast
        self.key = key
        self.answer_key = answer_key
        self.min_tolerance = min_tolerance

    def __repr__(self):
        return f"CanonicalQuery({self.key!r})"


#: Canonicalizations are pure functions of the source text: memoized
#: process-wide so the hot query path pays the tree rewrite once per
#: distinct spelling.
_CANON_CACHE = LRUCache(max_entries=1024)


def canonicalize(query):
    """Canonicalize *query* (a string or AST) into a :class:`CanonicalQuery`."""
    text = query if isinstance(query, str) else None
    if text is not None:
        cached = _CANON_CACHE.get(text)
        if cached is not None:
            return cached
        source = query
        ast = xpath_parser.parse_cached(query)
    else:
        ast = query
        source = ast.unparse()
    canonical_ast = canonicalize_expression(ast)
    key = canonical_ast.unparse()
    answer_ast, tolerances = consistency_tolerances(canonical_ast)
    result = CanonicalQuery(source, canonical_ast, key,
                            answer_ast.unparse() if tolerances else key,
                            min(tolerances) if tolerances else None)
    if text is not None:
        _CANON_CACHE.put(text, result)
    return result


def canonical_key(query):
    """Shorthand: the exact canonical key of *query*."""
    return canonicalize(query).key


def canonicalization_stats():
    """Process-wide canonicalizer memo counters."""
    return dict(_CANON_CACHE.stats, entries=len(_CANON_CACHE))


# ----------------------------------------------------------------------
# The measured cache
# ----------------------------------------------------------------------
def estimate_bytes(value):
    """A cheap, stable size estimate for cache accounting.

    Strings count their length, scalars a machine word, fragments the
    length of their (memoized) serialization, containers the sum of
    their parts.  Estimates only steer eviction; they need to be
    monotone and cheap, not exact.
    """
    if value is None:
        return 1
    if isinstance(value, str):
        return len(value)
    if isinstance(value, (int, float, bool)):
        return 8
    if isinstance(value, (list, tuple)):
        return 8 + sum(estimate_bytes(item) for item in value)
    try:
        from repro.xmlkit.serializer import serialize as _serialize
        return len(_serialize(value))
    except Exception:
        return 64


class CacheEntry:
    """One cached value plus its accounting.

    ``region`` is the id path (a tuple of ``(tag, id)`` tuples) of the
    subtree the value was computed over -- what
    :meth:`SemanticCache.evict_paths` compares -- or ``None`` for a
    value with no IDable anchor, which is never region-evicted.

    ``as_of`` is the earliest time at which all the value's data was
    known current, or ``None`` when nothing bounded its freshness; a
    caller with a freshness bound is served against it.
    """

    __slots__ = ("key", "value", "nbytes", "computed_at", "hits", "region",
                 "as_of")

    def __init__(self, key, value, nbytes, computed_at, region=None,
                 as_of=None):
        self.key = key
        self.value = value
        self.nbytes = nbytes
        self.computed_at = computed_at
        self.hits = 0
        self.region = region
        self.as_of = as_of

    def age(self, now):
        return now - self.computed_at

    def __repr__(self):
        return (f"CacheEntry({self.key!r}, {self.nbytes}B, "
                f"hits={self.hits})")


class SemanticCache:
    """The answer cache: a size-aware LRU of freshness-stamped values.

    One class holds every cached answer at a site -- the gather
    driver's scalar answers and the aggregation manager's rollup
    summaries are two instances of it.  Thread-safe.

    Keys are answer keys: canonical, freshness-stripped query text.
    One rule serves an entry (:meth:`lookup`), against the time its data
    was current.  Each entry also carries the region it was computed
    over, so ownership changes evict by id path (:meth:`evict_paths`)
    without reading keys.
    """

    def __init__(self, max_entries=512, max_bytes=8 * 1024 * 1024):
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self._entries = OrderedDict()  # least-recently-used first
        self._bytes = 0
        self._lock = threading.Lock()
        self.stats = {
            "hits": 0,
            "misses": 0,
            "stale_rejects": 0,
            "stores": 0,
            "evictions": 0,
            "evicted_bytes": 0,
            "predicate_evictions": 0,
        }

    # -- the public surface --------------------------------------------
    def lookup(self, key, now, bound=None, max_age=None):
        """The entry under *key* iff it is fresh enough for the caller.

        A caller with a freshness *bound* (seconds) is served an entry
        whose data was current at ``now - bound``, give or take the
        precision slack *max_age*: ``now - as_of <= bound + max_age``.
        A caller without one is served only under a *max_age*, by the
        entry's age.  Without either, nothing is served.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None or (bound is None and max_age is None):
                self.stats["misses"] += 1
                return None
            if bound is not None:
                fresh = entry.as_of is not None and \
                    now - entry.as_of <= bound + (max_age or 0)
            else:
                fresh = entry.age(now) <= max_age
            if not fresh:
                self.stats["misses"] += 1
                self.stats["stale_rejects"] += 1
                return None
            entry.hits += 1
            self.stats["hits"] += 1
            self._entries.move_to_end(key)
            return entry

    def store(self, key, value, now, region=None, nbytes=None, as_of=None):
        """Cache *value*, computed at *now* over *region*, under *key*,
        its data all current at *as_of*.

        Replaces any entry already under *key*, then evicts
        least-recently-used entries until the budget holds again.
        Returns the new entry.
        """
        if nbytes is None:
            nbytes = estimate_bytes(value) + 64
        entry = CacheEntry(key, value, nbytes, now, region=region,
                           as_of=as_of)
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._bytes -= old.nbytes
            self._entries[key] = entry
            self._bytes += nbytes
            self.stats["stores"] += 1
            while self._entries and (
                len(self._entries) > self.max_entries
                or self._bytes > self.max_bytes
            ):
                _victim, evicted = self._entries.popitem(last=False)
                self._bytes -= evicted.nbytes
                self.stats["evictions"] += 1
                self.stats["evicted_bytes"] += evicted.nbytes
            return entry

    def peek(self, key):
        """The entry under *key* without touching counters or LRU order.

        Observability surfaces (EXPLAIN) use this so inspecting the
        cache never distorts the hit/miss statistics it reports.
        """
        with self._lock:
            return self._entries.get(key)

    def invalidate(self, key=None):
        with self._lock:
            if key is None:
                self._entries.clear()
                self._bytes = 0
            else:
                entry = self._entries.pop(key, None)
                if entry is not None:
                    self._bytes -= entry.nbytes

    def evict_paths(self, id_paths):
        """Evict every entry whose region overlaps one of *id_paths*.

        The one targeted-invalidation surface, used when ownership of
        a subtree changes hands: an entry at or below a given path was
        computed from the moved region, and one above it folded the
        moved region in.  Entries without a region are left alone.
        Counted under ``predicate_evictions``, separate from budget
        ``evictions``; returns how many entries were dropped.
        """
        targets = [tuple(tuple(pair) for pair in path)
                   for path in id_paths]
        with self._lock:
            doomed = [
                key for key, entry in self._entries.items()
                if entry.region is not None and any(
                    id_paths_overlap(entry.region, target)
                    for target in targets)
            ]
            for key in doomed:
                self._bytes -= self._entries.pop(key).nbytes
            self.stats["predicate_evictions"] += len(doomed)
            return len(doomed)

    @property
    def nbytes(self):
        return self._bytes

    def keys(self):
        with self._lock:
            return list(self._entries)

    def __len__(self):
        with self._lock:
            return len(self._entries)

    def __contains__(self, key):
        with self._lock:
            return key in self._entries

    def metrics(self):
        """The registry-facing snapshot: counters plus byte gauges."""
        with self._lock:
            return dict(
                self.stats,
                entries=len(self._entries),
                bytes=self._bytes,
            )

    def __repr__(self):
        return (f"SemanticCache({len(self)} entries, {self.nbytes}B, "
                f"hits={self.stats['hits']})")


# ----------------------------------------------------------------------
# Query logs and prewarming
# ----------------------------------------------------------------------
class QueryLog:
    """A bounded, replayable record of served queries.

    ``service.run_live`` appends to one when asked; :func:`prewarm`
    replays one against a cold cluster.  Saved as JSONL so logs from
    long-running deployments stream without loading whole files.
    """

    def __init__(self, max_records=100_000):
        self.max_records = max_records
        self._records = []
        self._lock = threading.Lock()

    def record(self, query, query_type=None, site=None):
        entry = {"query": str(query)}
        if query_type is not None:
            entry["type"] = query_type
        if site is not None:
            entry["site"] = site
        with self._lock:
            self._records.append(entry)
            if len(self._records) > self.max_records:
                del self._records[: len(self._records) - self.max_records]

    def __len__(self):
        with self._lock:
            return len(self._records)

    def __iter__(self):
        with self._lock:
            return iter(list(self._records))

    def save(self, path):
        with self._lock:
            records = list(self._records)
        with open(path, "w", encoding="utf-8") as handle:
            for entry in records:
                handle.write(json.dumps(entry, sort_keys=True))
                handle.write("\n")
        return len(records)

    @classmethod
    def load(cls, path, max_records=100_000):
        log = cls(max_records=max_records)
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                entry = json.loads(line)
                log.record(entry["query"], query_type=entry.get("type"),
                           site=entry.get("site"))
        return log

    def unique_queries(self):
        """Deduplicated queries by canonical key, first spelling wins.

        Replaying 10k logged queries that canonicalize to 40 regions
        costs 40 gathers -- deduplication is what makes prewarming
        cheap enough to run before every deployment.
        """
        return unique_entries(self)


def unique_entries(entries):
    """*entries* (``{"query": ...}`` dicts) deduplicated by canonical key,
    first spelling wins; a query that does not parse keys as itself."""
    seen = {}
    for entry in entries:
        try:
            key = canonical_key(entry["query"])
        except Exception:
            key = entry["query"]
        seen.setdefault(key, entry)
    return list(seen.values())


def prewarm(cluster, log, now=None, limit=None, deduplicate=True):
    """Replay *log* against *cluster* to warm its OA caches.

    Each logged query routes to its LCA site and runs through that
    site's gather driver exactly as live traffic would, filling the
    site database (aggressive caching) and the aggregate cache.
    Returns a report dict: queries replayed, failures, per-site counts.

    *log* may be a :class:`QueryLog` or any iterable of query strings /
    ``{"query": ...}`` dicts.  With *deduplicate* (default) the replay
    collapses canonical duplicates first.
    """
    from repro.core.gather import SCALAR_WRAPPERS
    from repro.xpath.ast import FunctionCall as _FunctionCall

    entries = [entry if isinstance(entry, dict) else {"query": entry}
               for entry in log]
    if deduplicate:
        entries = unique_entries(entries)
    if limit is not None:
        entries = entries[:limit]

    replayed = 0
    failures = 0
    by_site = {}
    for entry in entries:
        query = entry["query"]
        try:
            site, _path = cluster.route_query(query)
            driver = cluster.agent(site).driver
            ast = xpath_parser.parse(query)
            if isinstance(ast, _FunctionCall) and ast.name in SCALAR_WRAPPERS:
                driver.answer_scalar(ast, now=now)
            else:
                driver.gather(ast, now=now)
            driver.note_prewarm()
        except Exception:
            failures += 1
            continue
        replayed += 1
        by_site[site] = by_site.get(site, 0) + 1
    return {
        "replayed": replayed,
        "failures": failures,
        "unique": len(entries),
        "by_site": by_site,
    }

"""Drive one workload and turn what happened into named metrics.

Two passes exist.  The *timed* pass (``trace=False``) sets the
deployment up several times, drives the workload against unwrapped code
and reports the end-to-end metrics.  The *traced* pass (``trace=True``)
drives the same stream untraced, replays its first third on a fresh
deployment under :func:`spans.tracing`, and reports the per-layer
metrics; a third, short replay with ``count_bytes=True`` sizes the wire
traffic so that neither of the first two pays for ``encoded_size()``.

A run is a fixed number of rounds (``Workload.rounds``), so two commits
do identical work.  Every operation is timed on its own (closed loop,
one client: the next operation is posed when the previous one has
returned), its answer is reduced to a digest outside the timed interval,
and all digests are judged by the oracle after the run.  Operations the
oracle rejects are *failed*; they are counted and reported, never
raised and never a reason to call the run incorrect.

Reported times are *normalised to a reference host*.  This box shares
its cores: the same pure-Python loop takes 1.0 ms one second and 1.9 ms
the next, and wall or CPU clocks both read the difference as latency
(run-to-run spread of a raw median: ~20 %).  So a :class:`HostGauge`
times a fixed calibration slice between operations, about every 30 ms,
and each timing is divided by the host's slowdown around it (spread of
the normalised median: 1-8 %).  A normalised millisecond is a
millisecond on a host where the slice takes :data:`REFERENCE_SLICE_MS`,
so code that gets slower by *k* slices of work reads *k* ms slower on
any host (the self-test injects exactly that); the traced pass also
reports the raw wall-clock medians.
"""

import gc
import json
import resource
import statistics
import threading
from collections import Counter
from contextlib import nullcontext
from time import perf_counter

from repro.core.qeg import pattern_key_stats
from repro.core.semcache import canonicalization_stats
from repro.xmlkit.serializer import serialization_stats

from benchmarks.layers import spans
from benchmarks.layers.oracle import FreshnessOracle, StaticOracle
from benchmarks.layers.workloads import (
    QUERY_TYPES,
    WORKLOADS,
    Deployment,
    LogicalClock,
    parking_config,
    rounds,
)

#: Set-up is repeated at least twice, and on until it has taken
#: SETUP_BUDGET_S in all or SETUP_REPEATS_MAX is reached: a 0.4 s set-up
#: needs more repeats than a 5 s one for its median to be steady, and
#: the driver's 92 runs cannot afford a third 5 s set-up each.
SETUP_REPEATS_MIN = 2
SETUP_REPEATS_MAX = 5
SETUP_BUDGET_S = 1.5
#: The traced replay repeats this share (1/N) of the stream.
TRACED_SHARE = 3
#: The wire-sizing replay stops at the round that reaches this many
#: operations.
WIRE_OPS = 100
#: Spans of this many leading operations go into the trace file.
TRACE_FILE_OPS = 100
#: How many offending operations a report spells out.
SHOWN_FAILURES = 3

LATENCY_KINDS = tuple(f"t{qtype}" for qtype in QUERY_TYPES) + \
    ("scan", "update")

SLICE_ITERATIONS = 20_000
SLICE_EVERY_S = 0.03
#: What the calibration slice takes on the reference host (this box,
#: undisturbed, takes about 1.05 ms).
REFERENCE_SLICE_MS = 1.0


def calibration_slice():
    """The fixed pure-Python work whose duration says how fast the host
    is right now."""
    total = 0
    for i in range(SLICE_ITERATIONS):
        total += i * i % 7
    return total


class HostGauge:
    """Host speed, sampled beside the work it is used to normalise."""

    def __init__(self):
        self.samples = []
        self._last = 0.0

    def sample(self):
        started = perf_counter()
        calibration_slice()
        self._last = perf_counter()
        self.samples.append((self._last - started) * 1000.0)

    def sample_if_due(self):
        if perf_counter() - self._last >= SLICE_EVERY_S:
            self.sample()

    def slowdown(self, taken):
        """Host slowdown around the moment *taken* samples existed: the
        mean of the sample before it and the sample after."""
        before, after = self.samples[taken - 1:taken + 1]
        return (before + after) / 2.0 / REFERENCE_SLICE_MS

    def timed(self, work):
        """Run ``work()`` while a helper thread samples, for work that
        cannot be interleaved with samples (set-up is one call); returns
        its result and its normalised duration in seconds."""
        first = len(self.samples)
        stop = threading.Event()

        def sampler():
            while not stop.wait(SLICE_EVERY_S):
                self.sample()

        thread = threading.Thread(target=sampler, name="layers-gauge")
        self.sample()
        started = perf_counter()
        thread.start()
        try:
            result = work()
        finally:
            elapsed = perf_counter() - started
            stop.set()
            thread.join()
        self.sample()
        return result, elapsed * statistics.fmean(
            REFERENCE_SLICE_MS / sample for sample in self.samples[first:])


def percentile(ordered, fraction):
    """Nearest-rank percentile of an ascending list (0.0 when empty)."""
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


class Record:
    """What one operation did: timing, answer digest, failure if any.

    ``seconds`` is wall clock; ``gauged`` is how many calibration
    samples preceded the operation, from which ``slowdown`` (the host's
    slowdown around it) is filled in when the run has finished.
    """

    __slots__ = ("op", "now", "seconds", "gauged", "slowdown", "digest",
                 "error")

    def __init__(self, op, now, seconds, gauged, digest, error):
        self.op = op
        self.now = now
        self.seconds = seconds
        self.gauged = gauged
        self.slowdown = None
        self.digest = digest
        self.error = error

    @property
    def normal_ms(self):
        return self.seconds * 1000.0 / self.slowdown


def _drive(deployment, workload, config, clock, seed, round_limit, cap_s,
           tracer=None):
    """Pose *round_limit* rounds of the workload's stream, from a
    collected heap, on a deployment that is already set up; *cap_s* ends
    a run that a slow host would stretch past the driver's patience.
    Returns ``(oracle, records, slice_ms)``, the last being every
    calibration sample taken beside the operations."""
    oracle = _oracle_for(workload, deployment)
    records = []
    gauge = HostGauge()
    gc.collect()
    deadline = perf_counter() + cap_s
    for done, ops in enumerate(rounds(workload, config, seed)):
        if done == round_limit or perf_counter() >= deadline:
            break
        for op in ops:
            gauge.sample_if_due()
            now = clock.advance(op.advance)
            digest = error = None
            if tracer is not None:
                tracer.begin_op(len(records))
            started = perf_counter()
            try:
                if op.kind == "update":
                    answer = deployment.update(op.path, op.values)
                else:
                    answer = deployment.query(op.query, now)
            except Exception as exc:  # a failed operation, not a crash
                error = f"{type(exc).__name__}: {exc}"
            seconds = perf_counter() - started
            if tracer is not None:
                tracer.end_op()
            if error is None:
                if op.kind == "update":
                    if not answer:
                        error = "update not acknowledged"
                else:
                    results, complete = answer
                    if not complete:
                        error = "answer reported incomplete"
                    digest = oracle.digest(results)
            records.append(Record(op, now, seconds, len(gauge.samples),
                                  digest, error))
    gauge.sample()
    for record in records:
        record.slowdown = gauge.slowdown(record.gauged)
    return oracle, records, gauge.samples


def _oracle_for(workload, deployment):
    if workload.feed:
        return FreshnessOracle(deployment.document, workload.tolerance)
    return StaticOracle(deployment.document)


def _verify(oracle, records):
    """Judge every record; returns the failures as printable strings."""
    for record in records:
        if record.op.kind == "update" and record.error is None:
            oracle.record_update(record.op.path, record.op.values,
                                 record.now)
    failures = []
    for record in records:
        problems = [record.error] if record.error else []
        if not problems and record.op.kind != "update":
            problems = oracle.verify(record.op.query, record.now,
                                     record.digest)
        if problems:
            failures.append(f"[{record.op.kind} @ {record.now:g}] "
                            f"{record.op.describe()}: "
                            + "; ".join(problems[:2]))
    return failures


def _answers_from_cache(workload):
    """Whether every answer must come from the copies the set-up sweep
    left: no updates flow and the bound outlasts the run."""
    return workload.warm and not workload.feed


def _counters(deployment):
    """Cumulative counters from the program's public stats."""
    cluster = deployment.cluster
    agents = list(cluster.agents.values())
    out = Counter()
    for agent in agents:
        for key in ("queries", "rounds", "subqueries_sent", "local_hits"):
            out[f"gather.{key}"] += agent.driver.stats[key]
        out["db.evictions"] += agent.database.stats["evictions"]
        out["oa.subqueries_served"] += agent.stats["subqueries_served"]
    for resolver in [cluster.client_resolver] + \
            [agent.resolver for agent in agents]:
        out["dns.hits"] += resolver.stats["hits"]
        out["dns.misses"] += resolver.stats["misses"]
    out["compile.hits"] = cluster.schema.compiled_patterns.stats["hits"]
    out["compile.compiles"] = pattern_key_stats()["canonical_compiles"]
    canon = canonicalization_stats()
    out["canon.hits"], out["canon.misses"] = canon["hits"], canon["misses"]
    memo = serialization_stats()
    out["memo.hits"], out["memo.misses"] = \
        memo["cache_hits"], memo["cache_misses"]
    pool = getattr(deployment.network, "pool_stats", {})
    out["tcp.connects"] = pool.get("connects", 0)
    out["tcp.reuses"] = pool.get("reuses", 0)
    out["messages"] = deployment.network.traffic.messages
    out["bytes"] = deployment.network.traffic.bytes
    return out


def _ratio(hits, misses):
    return hits / (hits + misses) if hits + misses else 0.0


def _metric(value, unit, samples=None):
    entry = {"value": float(value), "unit": unit}
    if samples is not None:
        entry["n"] = samples
    return entry


def _latencies(records, wall=False):
    """Ascending per-kind latencies in ms, normalised unless *wall*."""
    by_kind = {kind: [] for kind in LATENCY_KINDS}
    for record in records:
        by_kind[record.op.kind].append(
            record.seconds * 1000.0 if wall else record.normal_ms)
    for values in by_kind.values():
        values.sort()
    return by_kind


def _busy_s(records):
    """Normalised seconds spent inside the timed operations."""
    return sum(record.normal_ms for record in records) / 1000.0


def _result(workload, records, failures, metrics, problems):
    """``failed`` counts wrong, raised and incomplete answers: what the
    program got wrong.  ``correct`` is about the harness and its
    structural predictions only, so a program defect is reported, not
    turned into a refused run."""
    return {
        "workload": workload.name,
        "correct": not problems,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": metrics,
        "failures": failures[:SHOWN_FAILURES],
        "problems": problems,
    }


def _run_fresh(workload, config, seed, round_limit, cap_s, traced=False,
               count_bytes=False):
    """Build a primed deployment, drive the stream on it, tear it down.

    Returns ``(oracle, records, slice_ms, moved, tracer)``: *moved* is
    what the program's counters did over the window, *tracer* is None
    unless *traced*.
    """
    clock = LogicalClock()
    deployment = Deployment(workload, config, clock, count_bytes)
    try:
        before = _counters(deployment)
        with (spans.tracing(deployment.cluster) if traced
              else nullcontext()) as tracer:
            oracle, records, slice_ms = _drive(
                deployment, workload, config, clock, seed, round_limit,
                cap_s, tracer=tracer)
        moved = _counters(deployment) - before
    finally:
        deployment.close()
    return oracle, records, slice_ms, moved, tracer


# ----------------------------------------------------------------------
# The timed pass: end-to-end metrics
# ----------------------------------------------------------------------
def timed_pass(workload, seed, cap_s, quick=False):
    config = parking_config(quick)
    setups = []
    gauge = HostGauge()
    deployment = None
    try:
        while len(setups) < SETUP_REPEATS_MIN or (
                len(setups) < SETUP_REPEATS_MAX
                and sum(setups) < SETUP_BUDGET_S):
            if deployment is not None:
                deployment.close()
                deployment = None
            gc.collect()
            clock = LogicalClock()
            deployment, setup_s = gauge.timed(
                lambda: Deployment(workload, config, clock))
            setups.append(setup_s)
        before = _counters(deployment)
        oracle, records, _ = _drive(
            deployment, workload, config, clock, seed,
            workload.quick_rounds if quick else workload.rounds, cap_s)
        peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        moved = _counters(deployment) - before
    finally:
        if deployment is not None:
            deployment.close()
    failures = _verify(oracle, records)
    latencies = _latencies(records)
    metrics = {
        "setup_s": _metric(statistics.median(setups), "s", len(setups)),
        "throughput_ops_s": _metric(
            len(records) / _busy_s(records), "1/s", len(records)),
        "peak_rss_mb": _metric(peak_rss_mb, "MB"),
    }
    for qtype in QUERY_TYPES:
        values = latencies[f"t{qtype}"]
        metrics[f"t{qtype}_p50_ms"] = _metric(
            statistics.median(values), "ms", len(values))
    problems = []
    if _answers_from_cache(workload) and moved["messages"]:
        problems.append(f"a warm run sent {moved['messages']} messages")
    return _result(workload, records, failures, metrics, problems)


# ----------------------------------------------------------------------
# The traced pass: per-layer metrics
# ----------------------------------------------------------------------
def traced_pass(workload, seed, cap_s, quick=False, trace_path=None):
    config = parking_config(quick)
    tcp = workload.transport == "tcp"
    # 1. Untraced reference: the timed pass's stream.
    full = workload.quick_rounds if quick else workload.rounds
    oracle, records, slice_ms, moved, _ = _run_fresh(
        workload, config, seed, full, cap_s)
    failures = _verify(oracle, records)
    ops = len(records)

    # 2. The first third of the same operations under the wrappers.
    ops_per_round = len(next(rounds(workload, config, seed)))
    prefix = max(1, min(full, ops // ops_per_round) // TRACED_SHARE)
    _, traced, _, _, tracer = _run_fresh(
        workload, config, seed, prefix, cap_s, traced=True)
    layers, totals = spans.attribute(
        tracer, [record.slowdown for record in traced])
    if trace_path is not None:
        with open(trace_path, "w", encoding="utf-8") as handle:
            json.dump(spans.export(tracer, TRACE_FILE_OPS), handle)

    # 3. Wire bytes.  TCP counts them by default; loopback needs a
    #    count_bytes deployment, which serializes every message.
    if tcp:
        wire_bytes, wire_ops = moved["bytes"], ops
    else:
        _, sized, _, sized_moved, _ = _run_fresh(
            workload, config, seed,
            min(prefix, -(-WIRE_OPS // ops_per_round)), cap_s,
            count_bytes=True)
        wire_bytes, wire_ops = sized_moved["bytes"], len(sized)

    metrics = {}
    for name, layer in layers.items():
        metrics[f"{name}.self_ms_per_op"] = _metric(
            layer["self_ms_per_op"], "ms")
        metrics[f"{name}.calls_per_op"] = _metric(
            layer["calls_per_op"], "count")
    gathers = moved["gather.queries"]
    metrics.update({
        "core.gather.rounds_per_op":
            _metric(moved["gather.rounds"] / ops, "count"),
        "core.gather.subqueries_per_op":
            _metric(moved["gather.subqueries_sent"] / ops, "count"),
        "core.gather.local_hit_ratio":
            _metric(moved["gather.local_hits"] / gathers if gathers else 0.0,
                    "ratio", gathers),
        "core.qeg.compile_hit_ratio":
            _metric(_ratio(moved["compile.hits"], moved["compile.compiles"]),
                    "ratio"),
        "core.semcache.canonical_memo_hit_ratio":
            _metric(_ratio(moved["canon.hits"], moved["canon.misses"]),
                    "ratio"),
        "xmlkit.serialize_memo_hit_ratio":
            _metric(_ratio(moved["memo.hits"], moved["memo.misses"]),
                    "ratio"),
        "core.database.evictions": _metric(moved["db.evictions"], "count"),
        "net.dns.hit_ratio":
            _metric(_ratio(moved["dns.hits"], moved["dns.misses"]), "ratio"),
        "net.oa.subqueries_served_per_op":
            _metric(moved["oa.subqueries_served"] / ops, "count"),
        "net.tcpruntime.connects": _metric(moved["tcp.connects"], "count"),
        "net.tcpruntime.reuses": _metric(moved["tcp.reuses"], "count"),
        "remote_msgs_per_op": _metric(moved["messages"] / ops, "count"),
        "wire_kb_per_op":
            _metric(wire_bytes / 1024.0 / wire_ops, "KB", wire_ops),
        "failed_ops_ratio": _metric(len(failures) / ops, "ratio", ops),
        "trace.overhead_ratio":
            _metric(_busy_s(traced) / _busy_s(records[:len(traced)]),
                    "ratio", len(traced)),
        "trace.attributed_share":
            _metric(totals["self_s"] / totals["root_s"], "ratio"),
        "trace.overlap_ratio":
            _metric(totals["exclusive_s"] / totals["root_s"], "ratio"),
        "host.calibration_ms":
            _metric(statistics.median(slice_ms), "ms", len(slice_ms)),
    })
    latencies = _latencies(records)
    wall = _latencies(records, wall=True)
    for kind in LATENCY_KINDS:
        values = latencies[kind]
        if kind in ("scan", "update"):
            metrics[f"{kind}_p50_ms"] = _metric(
                percentile(values, 0.50), "ms", len(values))
        metrics[f"client.{kind}_p95_ms"] = _metric(
            percentile(values, 0.95), "ms", len(values))
        metrics[f"client.{kind}_wall_p50_ms"] = _metric(
            percentile(wall[kind], 0.50), "ms", len(values))

    problems = []

    def calls(name):
        return layers[name]["calls_per_op"]

    if _answers_from_cache(workload) and (
            moved["messages"] or calls(spans.DISPATCH_SPAN)):
        problems.append("a warm run dispatched subqueries")
    wire_calls = calls("net.messages.encode"), calls("xmlkit.serialize")
    if tcp and not all(wire_calls):
        problems.append("a TCP run recorded no encode or serialize calls")
    if not tcp and any(wire_calls):
        problems.append("a loopback run encoded or serialized messages")
    return _result(workload, records, failures, metrics, problems)


def run_workload(name, seed, cap_s, quick=False, trace=False,
                 trace_path=None):
    """Run one pass of workload *name*; returns the result dict."""
    workload = WORKLOADS[name]
    if trace:
        return traced_pass(workload, seed, cap_s, quick, trace_path)
    return timed_pass(workload, seed, cap_s, quick)

"""Observability smoke check: a traced 3-site TCP query, end to end.

``python -m repro.smoke obs`` (needs ``PYTHONPATH=src:.``) builds a
three-level ownership chain (``top`` owns the region, ``mid`` the
group, ``leaf`` the sensor), serves it over real TCP sockets, runs one
user query at the top with tracing enabled, and asserts the assembled
trace is a single tree that

* touches all three sites,
* parent-links every span into one root (no orphans), and
* contains the expected ``gather``/``send-subquery``/``tcp-serve``
  chain across the two hops.

The trace tree is written to ``<artifacts>/TRACE_smoke.json`` so CI can
archive it.  ``--validate 'BENCH_*.json'`` (this smoke's one option)
also validates benchmark result files against the shared envelope
schema in :mod:`benchmarks.reporting`.
"""

import glob
import json
import os


def _chain_document():
    from repro.xmlkit import Element

    root = Element("region", attrib={"id": "R"})
    group = Element("group", attrib={"id": "G"})
    sensor = Element("sensor", attrib={"id": "S"})
    sensor.append(Element("value", text="42"))
    group.append(sensor)
    root.append(group)
    return root


def _chain_plan():
    from repro.core import PartitionPlan

    return PartitionPlan({
        "top": [(("region", "R"),)],
        "mid": [(("region", "R"), ("group", "G"))],
        "leaf": [(("region", "R"), ("group", "G"), ("sensor", "S"))],
    })


QUERY = "/region[@id='R']/group[@id='G']/sensor[@id='S']/value"


def _traced_query(output):
    """Run the traced 3-site query and write its trace to *output*;
    returns ``(problems, sites touched, span count)``."""
    from repro.net.tcpruntime import TcpCluster
    from repro.obs.tracing import (
        TRACER,
        assemble_trace,
        disable_tracing,
        enable_tracing,
    )

    TRACER.reset()
    enable_tracing()
    try:
        with TcpCluster(_chain_document(), _chain_plan(),
                        service="smoke") as tcp:
            top = tcp.cluster.agents["top"]
            results, outcome = top.answer_user_query(QUERY)
    finally:
        disable_tracing()

    problems = []
    if len(results) != 1:
        problems.append(f"expected 1 result, got {len(results)}")
    if not outcome.complete:
        problems.append("gather outcome is not complete")

    trace_ids = TRACER.trace_ids()
    if len(trace_ids) != 1:
        problems.append(f"expected 1 trace, got {len(trace_ids)}")
    spans = TRACER.export(trace_ids[0]) if trace_ids else []
    tree = assemble_trace(spans)
    if tree is None:
        problems.append("no spans collected")
        sites = set()
    else:
        sites = tree.sites_touched()
        if len(sites) < 3:
            problems.append(
                f"trace touched {sorted(sites)}, expected >= 3 sites")
        # Every span must parent-link into one root: a synthetic
        # "trace" root means assemble_trace found orphans.
        if tree.span.name == "trace":
            problems.append("trace has orphan spans (multiple roots)")
        span_ids = {span["span_id"] for span in spans}
        for span in spans:
            parent = span["parent_id"]
            if parent is not None and parent not in span_ids:
                problems.append(
                    f"span {span['span_id']} ({span['name']}) has "
                    f"unknown parent {parent}")
        for name in ("user-query", "gather", "send-subquery",
                     "tcp-serve"):
            if not tree.find_all(name):
                problems.append(f"no {name!r} span in the trace")

    report = {
        "query": QUERY,
        "sites_touched": sorted(sites),
        "span_count": len(spans),
        "problems": problems,
        "spans": spans,
        "tree": tree.to_dict() if tree is not None else None,
    }
    with open(output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return problems, sorted(sites), len(spans)


def validate_reports(patterns):
    """Validate ``BENCH_*.json`` files; returns a list of problems."""
    try:
        from benchmarks.reporting import validate_file
    except ImportError:
        # Running from an installed tree without the benchmarks
        # package: fall back to the envelope's required keys.
        def validate_file(path):
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    data = json.load(handle)
            except (OSError, ValueError) as exc:
                return [f"{path}: unreadable: {exc}"]
            missing = [key for key in ("schema_version", "name",
                                       "timestamp", "params", "metrics")
                       if key not in data]
            return [f"{path}: missing {key!r}" for key in missing]

    problems = []
    seen = 0
    for pattern in patterns:
        for path in sorted(glob.glob(pattern)):
            seen += 1
            issues = validate_file(path)
            problems.extend(issues)
            print(f"{path}: {'INVALID' if issues else 'ok'}")
    if seen == 0:
        problems.append(f"no files matched {patterns}")
    return problems


def run(artifacts, validate=()):
    """The traced query, plus report validation for each *validate*
    glob."""
    output = os.path.join(artifacts, "TRACE_smoke.json")
    problems, sites, span_count = _traced_query(output)
    if validate:
        problems.extend(validate_reports(validate))
    return problems, {
        "query": QUERY,
        "sites_touched": sites,
        "span_count": span_count,
        "validated": list(validate),
        "headline": f"trace: {span_count} spans across {sites} -> {output}",
    }

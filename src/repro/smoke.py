"""One runner for the end-to-end smoke checks.

``python -m repro.smoke NAME --artifacts DIR`` (needs
``PYTHONPATH=src:.``) runs one package's smoke -- its
``run(artifacts) -> (problems, summary)`` -- and owns everything the
checks share: the command line, the artifacts directory, the
``summary.json`` it leaves there for CI to archive, the ``FAIL:`` lines
and the exit code.  A smoke only builds its deployment, drives it, and
reports what went wrong (*problems*, empty on success) and what it
measured (*summary*; its ``headline`` is printed on success).  The
``obs`` smoke takes one option of its own, ``--validate GLOB``.

The three-site deployment most smokes stand up (a region, two groups of
three sensors, one site per group) is here too, so each smoke states
only what is particular to it.
"""

import argparse
import importlib
import itertools
import json
import os
import sys

SMOKES = {
    "durability": "repro.durability.smoke",
    "replication": "repro.replication.smoke",
    "aggregation": "repro.agg.smoke",
    "rebalance": "repro.rebalance.smoke",
    "semcache": "repro.core.semcache_smoke",
    "obs": "repro.obs.smoke",
}


def three_site_document(value=lambda group, sensor: 0):
    """``region R`` > ``group g0, g1`` > ``sensor s0..s2`` > ``value``."""
    from repro.xmlkit import Element

    root = Element("region", attrib={"id": "R"})
    for group_index in range(2):
        group = Element("group", attrib={"id": f"g{group_index}"})
        root.append(group)
        for sensor_index in range(3):
            sensor = Element("sensor", attrib={"id": f"s{sensor_index}"})
            sensor.append(Element(
                "value", text=str(value(group_index, sensor_index))))
            group.append(sensor)
    return root


#: A point lookup, a group scan and a lookup in the other group.
THREE_SITE_QUERIES = [
    "/region[@id='R']/group[@id='g0']/sensor[@id='s1']/value",
    "/region[@id='R']/group[@id='g0']/sensor",
    "/region[@id='R']/group[@id='g1']/sensor[@id='s2']",
]
G0_S1 = (("region", "R"), ("group", "g0"), ("sensor", "s1"))


def three_site_plan():
    """``top`` owns the region, ``mid`` group ``g0``, ``leaf`` ``g1``."""
    from repro.core import PartitionPlan

    return PartitionPlan({
        "top": [(("region", "R"),)],
        "mid": [(("region", "R"), ("group", "g0"))],
        "leaf": [(("region", "R"), ("group", "g1"))],
    })


def impatient_oa_config(failure_threshold=3, **overrides):
    """Three zero-delay attempts and a quick breaker: failures surface
    in milliseconds instead of waiting out production backoff."""
    from repro.net import BreakerPolicy, OAConfig, RetryPolicy

    return OAConfig(
        retry_policy=RetryPolicy(max_attempts=3, base_delay=0.0,
                                 max_delay=0.0, jitter=0.0,
                                 sleep=lambda seconds: None),
        breaker=BreakerPolicy(failure_threshold=failure_threshold,
                              reset_timeout=0.05),
        **overrides)


def ticking_clock():
    """A deterministic clock that advances one second per reading."""
    ticks = itertools.count(1)
    return lambda: float(next(ticks))


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.smoke", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("name", choices=sorted(SMOKES))
    parser.add_argument("--artifacts",
                        help="directory for the summary and any other "
                             "artifacts (default: NAME-smoke)")
    parser.add_argument("--validate", action="append", default=[],
                        metavar="GLOB",
                        help="obs only: also validate the BENCH_*.json "
                             "report envelopes matching GLOB")
    args = parser.parse_args(argv)
    if args.validate and args.name != "obs":
        parser.error("--validate is an option of the obs smoke")
    artifacts = args.artifacts or f"{args.name}-smoke"
    os.makedirs(artifacts, exist_ok=True)

    run = importlib.import_module(SMOKES[args.name]).run
    options = {"validate": args.validate} if args.validate else {}
    problems, summary = run(artifacts, **options)

    summary = dict(summary, ok=not problems, problems=list(problems))
    with open(os.path.join(artifacts, "summary.json"), "w",
              encoding="utf-8") as handle:
        json.dump(summary, handle, indent=2, sort_keys=True)
        handle.write("\n")
    for problem in problems:
        print(f"FAIL: {problem}", file=sys.stderr)
    if problems:
        return 1
    print(f"OK: {summary.get('headline', args.name + ' smoke passed')}")
    print(f"Artifacts in {artifacts}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Before/after table of two layered-benchmark reports.

``python -m benchmarks.layers.compare BEFORE.json AFTER.json`` prints one
markdown row per workload and end-to-end metric: before, after, change,
the bound, and a verdict.  It is the table a performance PR pastes into
CHANGES.md.  The timings BENCHMARK.json declares come from the timed
pass with the bounds it fixes; :data:`COUNTED` holds the rest of ISSUE
12's end-to-end table, which BENCHMARK.json's one never-zero schema
cannot, and reads them from the traced pass.

Verdicts, with *worse* meaning the change in the metric's bad direction
as a share of the before value, and *spread* the larger of the two
reports' interquartile-range-over-median (zero for single-run reports):

``unresolved``  the spread exceeds the bound and the runs of the two
                reports overlap, so the bound cannot be checked;
``regressed``   worse by more than the bound, or more failed operations;
``improved``    better by more than the before report's own spread and
                by more than a third of the bound;
``unchanged``   anything else.

Counts repeat exactly for a seed, so they are judged on their medians
alone: both reports must come from the same seeds.
"""

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

#: ``(name, bound, counted)``.  A bound of 0.0 rejects any increase.
COUNTED = (
    ("failed_ops_ratio", 0.0, True),
    ("remote_msgs_per_op", 0.01, True),
    ("wire_kb_per_op", 0.01, True),
    ("scan_p50_ms", 0.10, False),
    ("update_p50_ms", 0.10, False),
)


def _runs(entry):
    return entry.get("runs", [entry["value"]])


def verdict(before, after, better, bound, counted=False):
    """Judge one metric; returns ``(worse_share, verdict)``."""
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (after["value"] - before["value"])
    if worse:
        worse = worse / before["value"] if before["value"] else float("inf")
    own = 0.0 if counted else before.get("spread", 0.0)
    spread = 0.0 if counted else max(own, after.get("spread", 0.0))
    if spread > bound:
        ahead = [sign * run for run in _runs(after)]
        behind = [sign * run for run in _runs(before)]
        if max(ahead) < min(behind):
            return worse, "improved"
        if min(ahead) > max(behind) and worse > bound:
            return worse, "regressed"
        return worse, "unresolved"
    if worse > bound:
        return worse, "regressed"
    if -worse > max(own, bound / 3.0):
        return worse, "improved"
    return worse, "unchanged"


def compare(before, after, benchmark):
    """Rows ``(workload, metric, before, after, unit, worse, bound,
    verdict)`` for every workload both reports hold."""
    rows = []
    for workload in before["metrics"]:
        if workload not in after["metrics"]:
            continue
        old = before["metrics"][workload]["end_to_end"]
        new = after["metrics"][workload]["end_to_end"]
        for spec in benchmark["end_to_end"]:
            name = spec["name"]
            worse, word = verdict(old["metrics"][name], new["metrics"][name],
                                  spec["better"], spec["bound"])
            rows.append((workload, name, old["metrics"][name]["value"],
                         new["metrics"][name]["value"], spec["unit"],
                         worse, spec["bound"], word))
        old_layers = before["metrics"][workload]["per_layer"]["metrics"]
        new_layers = after["metrics"][workload]["per_layer"]["metrics"]
        for name, bound, counted in COUNTED:
            if not old_layers[name].get("n", 1):
                continue  # this workload has no such operation
            worse, word = verdict(old_layers[name], new_layers[name],
                                  "lower", bound, counted)
            rows.append((workload, name, old_layers[name]["value"],
                         new_layers[name]["value"], old_layers[name]["unit"],
                         worse, bound, word))
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.layers.compare",
        description=__doc__.split("\n\n")[1])
    parser.add_argument("before")
    parser.add_argument("after")
    parser.add_argument("--benchmark", default=str(ROOT / "BENCHMARK.json"))
    args = parser.parse_args(argv)
    loaded = []
    for path in (args.before, args.after, args.benchmark):
        with open(path, encoding="utf-8") as handle:
            loaded.append(json.load(handle))
    rows = compare(*loaded)
    print("| workload | metric | before | after | change | bound | verdict |")
    print("|---|---|---|---|---|---|---|")
    for workload, name, old, new, unit, worse, bound, word in rows:
        change = f"{(new - old) / old:+.1%}" if old else "n/a"
        print(f"| {workload} | {name} | {old:.4g} {unit} | {new:.4g} {unit} "
              f"| {change} | {bound:.0%} | {word} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())

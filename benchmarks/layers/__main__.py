"""Command line of the layered benchmark.

``python -m benchmarks.layers`` runs the four benchmark workloads, each
as a timed pass (end-to-end metrics) and a traced pass (per-layer
metrics) in a process of its own, prints every metric by name, unit and
sample count, and writes the report envelope.  ``--workload W --trace
0|1`` runs one pass of one workload and ends with the one-line JSON
result BENCHMARK.json's driver reads.  The exit code is non-zero only on
harness error; failed operations are reported, not raised.
"""

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
# Runnable as ``python -m benchmarks.layers``, ``python benchmarks/layers``
# or by file path, with or without PYTHONPATH=src.
sys.path[:0] = [p for p in (str(ROOT), str(ROOT / "src"))
                if p not in sys.path]

try:
    import repro  # noqa: F401
    from benchmarks import reporting
except ImportError as exc:
    sys.exit(f"benchmarks.layers needs the repository around it "
             f"(src/repro and benchmarks/reporting.py): {exc}")

from benchmarks.layers.harness import run_workload  # noqa: E402
from benchmarks.layers.workloads import (  # noqa: E402
    BENCHMARK_WORKLOADS,
    WORKLOADS,
)

DEFAULT_SEED = 12
#: Matches ``run_seconds`` in BENCHMARK.json.
DEFAULT_SECONDS = 30


def _print_pass(result, seed, trace):
    title = "traced pass, per layer" if trace else "timed pass, end to end"
    print(f"\n== {result['workload']}  seed={seed}  {title} ==")
    width = max(len(name) for name in result["metrics"])
    for name, entry in result["metrics"].items():
        samples = f"  n={entry['n']}" if "n" in entry else ""
        print(f"  {name:<{width}}  {entry['value']:>14.6f} "
              f"{entry['unit']:<6}{samples}")
    print(f"  attempted={result['attempted']} failed={result['failed']} "
          f"correct={result['correct']}")
    for line in result["failures"]:
        print(f"  FAILED {line}")
    for line in result["problems"]:
        print(f"  PROBLEM {line}")


def _driver_line(result):
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": entry["value"], "unit": entry["unit"]}
                    for name, entry in result["metrics"].items()},
    })


def _entry(result):
    """One pass as a report entry (what ``--out`` holds per pass)."""
    return {"metrics": result["metrics"], "attempted": [result["attempted"]],
            "failed": [result["failed"]], "correct": result["correct"]}


def _summarise(entries):
    """Fold same-workload, same-pass entries of several seeds into one:
    the median of each metric, its runs and its spread."""
    metrics = {}
    for name, first in entries[0]["metrics"].items():
        values = [entry["metrics"][name]["value"] for entry in entries]
        folded = dict(first, value=statistics.median(values))
        if len(values) > 1:
            folded["runs"] = values
            low, _, high = statistics.quantiles(values, n=4)
            # Spread as the contract measures it: IQR over median.
            folded["spread"] = ((high - low) / folded["value"]
                                if folded["value"] else 0.0)
        metrics[name] = folded
    return {
        "metrics": metrics,
        "attempted": [n for entry in entries for n in entry["attempted"]],
        "failed": [n for entry in entries for n in entry["failed"]],
        "correct": all(entry["correct"] for entry in entries),
    }


def _pass_in_fresh_process(args, name, trace, seed):
    """Run one pass as the driver does, in a process of its own, so that
    no pass inherits another's heap, memo state or peak RSS; returns its
    report entry.  The child prints the pass as it goes."""
    with tempfile.TemporaryDirectory(dir=".", prefix=".layers-") as scratch:
        out = str(Path(scratch) / "pass.json")
        command = [sys.executable, __file__, "--workload", name,
                   "--trace", str(int(trace)), "--seed", str(seed),
                   "--seconds", str(args.seconds), "--out", out]
        if args.quick:
            command.append("--quick")
        subprocess.run(command, check=True)
        with open(out, encoding="utf-8") as handle:
            report = json.load(handle)
    return report["metrics"][name]["per_layer" if trace else "end_to_end"]


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.layers", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all",
                        choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="cap on a pass's measured window; a pass is "
                             "a fixed operation count and ends sooner")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=None,
                        help="0: timed pass only, 1: traced pass only "
                             "(default: both)")
    parser.add_argument("--quick", action="store_true",
                        help="ParkingConfig.tiny() and a few rounds: "
                             "self-test only, never a baseline")
    parser.add_argument("--repeat", type=int, default=1,
                        help="run this many consecutive seeds and report "
                             "medians with their spread")
    parser.add_argument("--out", default=None,
                        help="report envelope path (a full run defaults "
                             "to BENCH_layers.json)")
    args = parser.parse_args(argv)

    names = BENCHMARK_WORKLOADS if args.workload == "all" \
        else (args.workload,)
    passes = (False, True) if args.trace is None else (bool(args.trace),)
    seeds = range(args.seed, args.seed + args.repeat)
    alone = len(names) * len(passes) * len(seeds) == 1
    report = {}
    line = None
    for name in names:
        for trace in passes:
            entries = []
            for seed in seeds:
                if not alone:
                    entries.append(
                        _pass_in_fresh_process(args, name, trace, seed))
                    continue
                result = run_workload(
                    name, seed, args.seconds, quick=args.quick, trace=trace,
                    trace_path=f"TRACE_layers_{name}.json" if trace
                    else None)
                _print_pass(result, seed, trace)
                line = _driver_line(result)
                entries.append(_entry(result))
            report.setdefault(name, {})[
                "per_layer" if trace else "end_to_end"] = _summarise(entries)
    out = args.out or ("BENCH_layers.json" if args.workload == "all"
                       else None)
    if out is not None:
        reporting.write_report(out, "layers", {
            "seed": args.seed, "repeat": args.repeat,
            "seconds": args.seconds, "quick": args.quick,
            "workloads": list(names),
            "rounds": {name: WORKLOADS[name].quick_rounds if args.quick
                       else WORKLOADS[name].rounds for name in names},
        }, report)
        print(f"\nreport written to {out}")
    if line is not None:
        # The driver reads the last line of a one-workload, one-pass run.
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())

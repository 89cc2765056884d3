"""The layered wall-clock benchmark: ``python -m benchmarks.layers``.

Four workloads drive the real engine through its public API with a
harness-owned logical clock and zero injected delay; every answer is
checked against an oracle, and a second, traced pass attributes the
time to the repo's layers from outside.  See ``README.md`` beside this
file for the workloads, the metric glossary and the trace method.
"""

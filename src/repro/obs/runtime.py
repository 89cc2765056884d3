"""Process-level runtime gauges: what the cyclic garbage collector costs.

Every ``Element`` <-> ``parent`` pair is a reference cycle, so a tree
dropped without being released is freed only by the cycle collector,
whose pauses land inside whichever query happens to allocate next.  A
``gc.callbacks`` hook, installed once when this module is imported,
counts the collections of each generation and times their pauses, so
that cost reads from ``Cluster.metrics()["runtime"]`` without a
profiler.  The hook only reads the clock; it never changes how or when
the collector runs.
"""

import gc
import time

GENERATIONS = 3

#: Per generation: collections finished, and milliseconds spent in them.
_collections = [0] * GENERATIONS
_pause_ms = [0.0] * GENERATIONS
#: ``perf_counter`` reading at the start of the running collection.
_started = [0.0]


def _on_collect(phase, info):
    # Collections never nest, and a callback runs with the GIL held.
    if phase == "start":
        _started[0] = time.perf_counter()
        return
    generation = info["generation"]
    _collections[generation] += 1
    _pause_ms[generation] += (time.perf_counter() - _started[0]) * 1000.0


if _on_collect not in gc.callbacks:
    gc.callbacks.append(_on_collect)


def runtime_counters():
    """The collector's cost since the process imported this module:
    collections and pause milliseconds, each a list indexed by
    generation.  Process-wide (``scope: process``), never per site."""
    return {
        "gc_collections": list(_collections),
        "gc_pause_ms": [round(ms, 3) for ms in _pause_ms],
        "scope": "process",
    }

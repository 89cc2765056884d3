"""Subquery dispatch executors for an organizing agent's fan-out.

One gather round's pending subqueries name independent remote IDable
nodes: the agent groups them per destination, and an executor maps the
send over the groups and returns the replies *in input order*, which
is what keeps gathered answers byte-identical regardless of reply
arrival order.

Two executors are provided:

:class:`SerialExecutor` (the default)
    evaluates in plain input order on the calling thread.  Every site
    of a deployment shares one interpreter, so worker threads would
    only take turns on the GIL: a loopback round costs the same work
    either way, plus a thread start and join per send.  The
    discrete-event simulator uses it too (it models fan-out
    parallelism in virtual time instead).

:class:`ThreadedExecutor` (``"thread"`` / ``"threaded"``)
    dispatches a round's subqueries from short-lived worker threads, so
    a round over N sites whose hops really wait on a wire (injected WAN
    latency) costs roughly one round-trip instead of N.  Fresh threads
    per round (rather than a shared pool) make nested gathers safe: a
    remote site whose answer requires its own fan-out can never starve
    waiting behind its caller's round.

Executors only order *dispatch*; the gather driver always merges
replies back in subquery-emission order.
"""

import threading


class SerialExecutor:
    """Evaluate sends one at a time on the calling thread."""

    def map(self, fn, items):
        return [fn(item) for item in items]

    def __repr__(self):
        return "SerialExecutor()"


class ThreadedExecutor:
    """Evaluate sends concurrently on per-round worker threads.

    ``max_workers`` bounds the fan-out width of one round; a round
    with more subqueries than workers is served in waves as workers
    free up.  Replies come back in input order.  If any send raises,
    the remaining items still run and the exception of the
    earliest-index failing item is re-raised (matching the serial
    executor's "first failure wins" surface).
    """

    def __init__(self, max_workers=16):
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        self.max_workers = max_workers

    def map(self, fn, items):
        items = list(items)
        if len(items) <= 1 or self.max_workers == 1:
            return [fn(item) for item in items]
        results = [None] * len(items)
        errors = [None] * len(items)
        position = {"next": 0}
        position_lock = threading.Lock()

        def worker():
            while True:
                with position_lock:
                    index = position["next"]
                    if index >= len(items):
                        return
                    position["next"] = index + 1
                try:
                    results[index] = fn(items[index])
                except BaseException as exc:  # re-raised below
                    errors[index] = exc

        threads = [
            threading.Thread(target=worker, daemon=True)
            for _ in range(min(self.max_workers, len(items)))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for error in errors:
            if error is not None:
                raise error
        return results

    def __repr__(self):
        return f"ThreadedExecutor(max_workers={self.max_workers})"


#: The process-wide default used when no executor is configured.
_DEFAULT_EXECUTOR = SerialExecutor()
#: The shared executor the names ``"thread"``/``"threaded"`` select.
_THREADED_EXECUTOR = ThreadedExecutor()

_NAMED = {
    "thread": lambda: _THREADED_EXECUTOR,
    "threaded": lambda: _THREADED_EXECUTOR,
    "serial": lambda: _DEFAULT_EXECUTOR,
}


def resolve_executor(spec):
    """Turn an executor spec into an executor instance.

    ``None`` means the default :class:`SerialExecutor`; the strings
    ``"thread"``/``"threaded"`` and ``"serial"`` name the built-ins;
    anything with a ``map`` method is used as-is.
    """
    if spec is None:
        return _DEFAULT_EXECUTOR
    if isinstance(spec, str):
        try:
            return _NAMED[spec]()
        except KeyError:
            raise ValueError(
                f"unknown executor {spec!r}; expected one of "
                f"{sorted(_NAMED)} or an executor instance"
            ) from None
    if not hasattr(spec, "map"):
        raise TypeError(f"{spec!r} does not look like an executor (no .map)")
    return spec

"""Retry, deadline and circuit-breaking policy for distributed sends.

Wide-area deployments see flaky links, slow sites and stale DNS; the
paper's gather loop assumes none of that.  This module supplies the
policy objects the organizing agent's fan-out (the attempt loop) and
its one guarded ``request`` (the breakers) use to survive it:

:class:`RetryPolicy`
    capped exponential backoff with *deterministic* jitter -- the
    jitter fraction is a hash of (key, attempt), not RNG state, so a
    schedule is reproducible across runs, processes and thread
    interleavings;
:class:`Deadline`
    a wall-clock budget for one dispatch's whole attempt loop;
:class:`CircuitBreaker` / :class:`SiteHealthTracker`
    the classic closed -> open -> half-open state machine, one breaker
    per peer site, so a down site is skipped fast instead of
    re-timing-out on every gather round.

Everything takes an injectable clock/sleep so tests and the simulator
stay deterministic.
"""

import hashlib
import threading
import time


def hash_fraction(*parts):
    """A deterministic pseudo-random fraction in ``[0, 1)`` from *parts*.

    Built on BLAKE2 rather than ``hash()`` so the value survives
    ``PYTHONHASHSEED`` randomization -- fault schedules and jitter must
    reproduce across processes.
    """
    digest = hashlib.blake2b(
        "\x1f".join(repr(part) for part in parts).encode("utf-8"),
        digest_size=8,
    ).digest()
    return int.from_bytes(digest, "big") / float(1 << 64)


class RetryPolicy:
    """Capped exponential backoff with deterministic jitter.

    Attempts are numbered from 1.  :meth:`backoff` is the delay *after*
    the given failed attempt: ``base_delay * multiplier**(attempt-1)``,
    capped at ``max_delay``, then scaled into
    ``[delay * (1 - jitter), delay]`` by the hash of ``(key, attempt)``.
    ``deadline`` (seconds, optional) bounds one dispatch's whole
    attempt loop -- backoff sleeps are clamped to the remaining budget
    and no new attempt starts past it.  *sleep* is injectable so tests
    retry without wall-clock cost.
    """

    def __init__(self, max_attempts=3, base_delay=0.02, multiplier=2.0,
                 max_delay=1.0, jitter=0.5, deadline=None, sleep=time.sleep):
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        if base_delay < 0 or max_delay < 0:
            raise ValueError("delays must be >= 0")
        if not 0.0 <= jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {jitter}")
        self.max_attempts = max_attempts
        self.base_delay = base_delay
        self.multiplier = multiplier
        self.max_delay = max_delay
        self.jitter = jitter
        self.deadline = deadline
        self.sleep = sleep

    def backoff(self, attempt, key=None):
        """The delay (seconds) after failed attempt number *attempt*."""
        delay = min(self.max_delay,
                    self.base_delay * self.multiplier ** (attempt - 1))
        if not self.jitter or not delay:
            return delay
        fraction = hash_fraction("backoff", key, attempt)
        return delay * (1.0 - self.jitter * fraction)

    def schedule(self, key=None):
        """Every backoff delay of one dispatch, in order (for tests/docs)."""
        return [self.backoff(attempt, key)
                for attempt in range(1, self.max_attempts)]

    def __repr__(self):
        return (
            f"RetryPolicy(max_attempts={self.max_attempts}, "
            f"base_delay={self.base_delay}, max_delay={self.max_delay}, "
            f"jitter={self.jitter}, deadline={self.deadline})"
        )


class Deadline:
    """A wall-clock budget.  ``seconds=None`` means unbounded."""

    def __init__(self, seconds, clock=time.monotonic):
        self.clock = clock
        self.expires_at = None if seconds is None else clock() + seconds

    @property
    def expired(self):
        return self.expires_at is not None and self.clock() >= self.expires_at

    def remaining(self):
        """Seconds left, or ``None`` when unbounded."""
        if self.expires_at is None:
            return None
        return self.expires_at - self.clock()

    def clamp(self, delay):
        """*delay* cut down to the remaining budget (never negative)."""
        remaining = self.remaining()
        if remaining is None:
            return delay
        return max(0.0, min(delay, remaining))


#: Circuit breaker states.
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


class BreakerPolicy:
    """Tunables for a :class:`CircuitBreaker` (shared by a tracker).

    ``failure_threshold`` consecutive failures trip the breaker;
    ``reset_timeout`` seconds later one probe request is let through
    (half-open); its outcome closes or re-opens the circuit.
    """

    def __init__(self, failure_threshold=5, reset_timeout=30.0,
                 clock=time.monotonic):
        if failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {failure_threshold}")
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self.clock = clock


class CircuitBreaker:
    """Per-peer health: closed -> open -> half-open -> closed/open.

    Thread-safe; the fan-out worker threads of one agent share it.
    ``allow()`` is the gate: ``False`` means fail fast without touching
    the wire.  In half-open exactly one in-flight probe is allowed at a
    time; its success closes the circuit, its failure re-opens it.

    Whoever is told ``True`` owes the breaker exactly one
    ``record_success`` / ``record_failure`` -- a probe that is never
    resolved holds the circuit half-open for good.  That pairing is
    kept in one place, :meth:`repro.net.oa.OrganizingAgent.request`,
    which also says what counts as which; nothing else calls these.
    """

    def __init__(self, policy=None):
        self.policy = policy or BreakerPolicy()
        self._lock = threading.Lock()
        self.state = CLOSED
        self.consecutive_failures = 0
        self._opened_at = None
        self._probe_in_flight = False
        self.stats = {"opens": 0, "fast_failures": 0, "probes": 0}

    def allow(self):
        """Whether a request to this peer may go out now."""
        with self._lock:
            if self.state == CLOSED:
                return True
            if self.state == OPEN and (
                    self.policy.clock() - self._opened_at
                    >= self.policy.reset_timeout):
                self.state = HALF_OPEN
                self._probe_in_flight = False
            if self.state == HALF_OPEN and not self._probe_in_flight:
                self._probe_in_flight = True
                self.stats["probes"] += 1
                return True
            self.stats["fast_failures"] += 1
            return False

    def record_success(self):
        with self._lock:
            self.state = CLOSED
            self.consecutive_failures = 0
            self._probe_in_flight = False

    def record_failure(self):
        with self._lock:
            self.consecutive_failures += 1
            self._probe_in_flight = False
            should_open = (
                self.state == HALF_OPEN
                or (self.state == CLOSED
                    and self.consecutive_failures
                    >= self.policy.failure_threshold)
            )
            if should_open:
                self.state = OPEN
                self._opened_at = self.policy.clock()
                self.stats["opens"] += 1

    def snapshot(self):
        with self._lock:
            return dict(self.stats, state=self.state,
                        consecutive_failures=self.consecutive_failures)

    def __repr__(self):
        return (f"CircuitBreaker(state={self.state!r}, "
                f"consecutive_failures={self.consecutive_failures})")


class SiteHealthTracker:
    """One :class:`CircuitBreaker` per peer site, created on demand."""

    def __init__(self, policy=None):
        self.policy = policy or BreakerPolicy()
        self._breakers = {}
        self._lock = threading.Lock()

    def breaker(self, site):
        with self._lock:
            breaker = self._breakers.get(site)
            if breaker is None:
                breaker = CircuitBreaker(self.policy)
                self._breakers[site] = breaker
            return breaker

    def allow(self, site):
        return self.breaker(site).allow()

    def record_success(self, site):
        self.breaker(site).record_success()

    def record_failure(self, site):
        self.breaker(site).record_failure()

    def snapshot(self):
        """``{site: breaker snapshot}`` for stats surfaces."""
        with self._lock:
            breakers = dict(self._breakers)
        return {site: breaker.snapshot()
                for site, breaker in sorted(breakers.items())}


#: The process-wide default applied when an OAConfig names no policy.
DEFAULT_RETRY_POLICY = RetryPolicy()

"""Jittered exponential backoff with attempt and deadline budgets.

One policy object serves both retry loops in the service stack — the
server's worker-death retry and the client's transient-connection
retry (:func:`repro.service.transport.call`) — so the growth curve,
the jitter discipline, and the budget semantics are defined exactly
once.

Jitter is symmetric (``delay * (1 ± jitter)``): enough to de-correlate
retry storms from many clients without making the schedule unbounded
above the deterministic curve. Budgets compose: a schedule ends when
*either* ``max_attempts`` retries have been granted or the next sleep
would land past ``deadline`` seconds from the schedule's start —
whichever comes first.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class BackoffPolicy:
    """The shape of one retry schedule.

    ``base`` and ``factor`` define the deterministic curve
    (``base * factor**(attempt-1)``), ``cap`` bounds a single sleep,
    ``jitter`` is the symmetric randomisation fraction, and
    ``max_attempts`` / ``deadline`` bound the whole schedule (None
    means unbounded on that axis).
    """

    base: float = 0.5
    factor: float = 2.0
    cap: float = 30.0
    jitter: float = 0.25
    max_attempts: int | None = None
    deadline: float | None = None

    def __post_init__(self) -> None:
        if self.base < 0 or self.factor < 1 or self.cap < 0:
            raise ValueError("backoff curve must be non-negative and growing")
        if not 0 <= self.jitter < 1:
            raise ValueError("jitter must be in [0, 1)")

    def raw_delay(self, attempt: int) -> float:
        """The un-jittered sleep before retry ``attempt`` (1-based)."""
        if attempt < 1:
            raise ValueError("attempts are 1-based")
        return min(self.cap, self.base * self.factor ** (attempt - 1))

    def delay(self, attempt: int, rng: random.Random | None = None) -> float:
        raw = self.raw_delay(attempt)
        if self.jitter and rng is not None:
            raw *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return max(0.0, raw)


class Backoff:
    """A stateful schedule over one :class:`BackoffPolicy`.

    Call :meth:`next_delay` before each retry; it returns the seconds
    to sleep, or None once the policy's attempt/deadline budget is
    exhausted (the caller should then give up and surface the error).
    """

    def __init__(
        self,
        policy: BackoffPolicy,
        rng: random.Random | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.policy = policy
        self.attempt = 0
        self._rng = rng if rng is not None else random.Random()
        self._clock = clock
        self._started = clock()

    @property
    def elapsed(self) -> float:
        return self._clock() - self._started

    def next_delay(self) -> float | None:
        self.attempt += 1
        policy = self.policy
        if policy.max_attempts is not None and self.attempt > policy.max_attempts:
            return None
        delay = policy.delay(self.attempt, self._rng)
        if policy.deadline is not None and self.elapsed + delay > policy.deadline:
            return None
        return delay


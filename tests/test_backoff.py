"""Unit tests for the shared backoff policy: curve shape, jitter
bounds, and attempt/deadline budgets."""

from __future__ import annotations

import random

import pytest

from repro.service.backoff import Backoff, BackoffPolicy


class TestPolicy:
    def test_curve_grows_and_caps(self):
        policy = BackoffPolicy(base=0.5, factor=2.0, cap=3.0, jitter=0.0)
        assert [policy.raw_delay(a) for a in (1, 2, 3, 4, 5)] == [
            0.5, 1.0, 2.0, 3.0, 3.0,
        ]

    def test_jitter_symmetric_and_bounded(self):
        policy = BackoffPolicy(base=1.0, factor=1.0, cap=10.0, jitter=0.25)
        rng = random.Random(42)
        delays = [policy.delay(1, rng) for _ in range(500)]
        assert all(0.75 <= d <= 1.25 for d in delays)
        assert min(delays) < 0.9 and max(delays) > 1.1  # actually varies

    def test_zero_jitter_is_deterministic(self):
        policy = BackoffPolicy(base=1.0, jitter=0.0)
        assert policy.delay(2, random.Random(1)) == policy.raw_delay(2)

    def test_validation(self):
        with pytest.raises(ValueError):
            BackoffPolicy(base=-1.0)
        with pytest.raises(ValueError):
            BackoffPolicy(factor=0.5)
        with pytest.raises(ValueError):
            BackoffPolicy(jitter=1.0)
        with pytest.raises(ValueError):
            BackoffPolicy().raw_delay(0)


class TestSchedule:
    def test_max_attempts_budget(self):
        policy = BackoffPolicy(base=0.01, jitter=0.0, max_attempts=3)
        schedule = Backoff(policy)
        granted = [schedule.next_delay() for _ in range(5)]
        assert all(d is not None for d in granted[:3])
        assert granted[3] is None and granted[4] is None

    def test_deadline_budget_uses_injected_clock(self):
        now = [0.0]
        policy = BackoffPolicy(
            base=1.0, factor=1.0, cap=10.0, jitter=0.0, deadline=2.5
        )
        schedule = Backoff(policy, clock=lambda: now[0])
        assert schedule.next_delay() == 1.0
        now[0] = 1.0
        assert schedule.next_delay() == 1.0
        now[0] = 2.0  # next 1.0s sleep would land at 3.0 > 2.5
        assert schedule.next_delay() is None


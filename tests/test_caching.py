"""The single-flight primitive every caching layer coalesces through.

``SingleFlight`` backs the ordering service's per-key solves, the
index's per-mapping views and the socket server's cross-client orders,
so its contract is pinned here once: waiters share the leader's value,
a failed leader hands the key to exactly one waiter, a waiter's
deadline is honoured, and distinct keys never serialize.  Every
interleaving is forced with events and waiter counts, never with
sleeps.
"""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.caching import SingleFlight

WAIT = 10.0  # seconds any forced interleaving may take before failing
K = 4


def _wait_until(predicate) -> None:
    deadline = time.monotonic() + WAIT
    while not predicate():
        assert time.monotonic() < deadline, "interleaving never happened"
        time.sleep(0.001)


def _start(fn, outcomes, slot):
    def run():
        try:
            outcomes[slot] = ("ok", fn())
        except Exception as exc:
            outcomes[slot] = ("err", exc)

    thread = threading.Thread(target=run)
    thread.start()
    return thread


def _join(threads):
    for thread in threads:
        thread.join(timeout=WAIT)
        assert not thread.is_alive(), "thread still running"


def _blocked_leader(flight, key, outcomes, slot, *, fail=False):
    """Start a leader for ``key`` that runs until the returned event."""
    running, release = threading.Event(), threading.Event()

    def compute():
        running.set()
        assert release.wait(WAIT)
        if fail:
            raise RuntimeError("leader failed")
        return "leader's value"

    thread = _start(lambda: flight.do(key, compute), outcomes, slot)
    assert running.wait(WAIT)
    return thread, release


def test_waiters_share_the_leaders_value():
    flight: SingleFlight[str, str] = SingleFlight()
    outcomes = [None] * (K + 1)
    leader, release = _blocked_leader(flight, "k", outcomes, 0)
    calls = []

    def never():
        calls.append(1)
        return "a waiter's value"

    waiters = [_start(lambda: flight.do("k", never), outcomes, i)
               for i in range(1, K + 1)]
    _wait_until(lambda: flight.waiters() == K)
    release.set()
    _join([leader] + waiters)

    assert outcomes[0] == ("ok", ("leader's value", False))
    assert outcomes[1:] == [("ok", ("leader's value", True))] * K
    assert calls == []
    assert flight.waiters() == 0


def test_failed_leader_raises_only_to_itself_and_one_waiter_leads():
    flight: SingleFlight[str, int] = SingleFlight()
    outcomes = [None] * (K + 1)
    leader, release = _blocked_leader(flight, "k", outcomes, 0, fail=True)
    runs = []

    def retry():
        runs.append(1)
        # Hold the key until every other waiter waits on this flight,
        # so none can miss it and compute again.
        _wait_until(lambda: flight.waiters() == K - 1)
        return 42

    waiters = [_start(lambda: flight.do("k", retry), outcomes, i)
               for i in range(1, K + 1)]
    _wait_until(lambda: flight.waiters() == K)
    release.set()
    _join([leader] + waiters)

    kind, exc = outcomes[0]
    assert kind == "err" and isinstance(exc, RuntimeError)
    assert runs == [1]
    assert sorted(outcomes[1:]) == sorted(
        [("ok", (42, False))] + [("ok", (42, True))] * (K - 1))
    assert flight.waiters() == 0


def test_waiter_past_its_deadline_times_out():
    flight: SingleFlight[str, str] = SingleFlight()
    outcomes = [None]
    leader, release = _blocked_leader(flight, "k", outcomes, 0)

    with pytest.raises(TimeoutError):
        flight.do("k", lambda: "never", deadline=time.monotonic() + 0.05)
    assert flight.waiters() == 0

    release.set()
    _join([leader])
    assert outcomes[0] == ("ok", ("leader's value", False))


def test_distinct_keys_lead_at_the_same_time():
    flight: SingleFlight[str, str] = SingleFlight()
    a_running, b_running = threading.Event(), threading.Event()

    def compute_a():
        a_running.set()
        assert b_running.wait(WAIT), "leaders serialized"
        return "a"

    def compute_b():
        b_running.set()
        assert a_running.wait(WAIT), "leaders serialized"
        return "b"

    outcomes = [None, None]
    threads = [_start(lambda: flight.do("a", compute_a), outcomes, 0),
               _start(lambda: flight.do("b", compute_b), outcomes, 1)]
    _join(threads)
    assert outcomes == [("ok", ("a", False)), ("ok", ("b", False))]


def test_counts_stay_exact_under_contention():
    """Every unshared result ran ``compute`` exactly once, and no
    waiter is left counted: a lost update on the table or the waiter
    count would break one of the two."""
    flight: SingleFlight[int, int] = SingleFlight()
    lock = threading.Lock()
    computed = [0]
    led = [0]

    def compute(key):
        with lock:
            computed[0] += 1
        time.sleep(0)  # yield, so other callers pile up as waiters
        return key * 10

    def hammer():
        for j in range(300):
            key = j % 5
            value, shared = flight.do(key, lambda: compute(key))
            assert value == key * 10
            if not shared:
                with lock:
                    led[0] += 1

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        outcomes = [None] * 16
        _join([_start(hammer, outcomes, i) for i in range(16)])
    finally:
        sys.setswitchinterval(interval)
    assert all(kind == "ok" for kind, _ in outcomes), outcomes
    assert led[0] == computed[0]
    assert flight.waiters() == 0

"""Timer: the shared wall-clock measurement helper."""

from __future__ import annotations

import time

from repro.obs import Timer


def test_timer_freezes_on_exit():
    with Timer() as timer:
        time.sleep(0.01)
    frozen = timer.seconds
    assert frozen >= 0.01
    time.sleep(0.005)
    assert timer.seconds == frozen


def test_timer_reads_live_inside_scope():
    with Timer() as timer:
        first = timer.seconds
        time.sleep(0.005)
        assert timer.seconds > first


def test_exit_without_enter_is_a_noop():
    # Regression: __exit__ used to do arithmetic on the None _start.
    timer = Timer()
    assert timer.__exit__(None, None, None) is False
    assert timer.seconds == 0.0

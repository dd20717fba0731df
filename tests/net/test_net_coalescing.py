"""Cross-client coalescing: N cold misses, one solve.

The acceptance property from the issue: K concurrent remote clients,
each on its own connection, all cold-missing the same fingerprint, pay
exactly ONE eigensolve — asserted three independent ways: the backing
frontend is called once, the solver-invocation counter moves by one,
and ``repro_net_coalesced_total`` moves by K-1.
"""

import threading
import time

import pytest

from repro.core.spectral import SpectralConfig
from repro.geometry.grid import Grid
from repro.linalg.backends import solver_invocations
from repro.net import RemoteFrontend, SpectralServer
from repro.obs import registry
from repro.service import ShardedIndexFrontend

from tests.net.gating import GatedFrontend

pytestmark = pytest.mark.net

K = 4


def _counter_value(name: str) -> float:
    return registry().counter(name).value()


def test_k_cold_clients_pay_one_solve():
    gated = GatedFrontend(ShardedIndexFrontend(shards=1))
    grid = Grid((13, 13))  # unique to this test: must be a cold miss
    solves_before = solver_invocations()
    coalesced_before = _counter_value("repro_net_coalesced_total")

    with SpectralServer(gated, dispatchers=K, queue_depth=2 * K) as server:
        host, port = server.address
        results = [None] * K
        errors = []

        def hit(i):
            try:
                with RemoteFrontend(host, port, read_timeout=60) as client:
                    results[i] = client.order_grid(grid)
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=hit, args=(i,))
                   for i in range(K)]
        for t in threads:
            t.start()
        # Hold the gate until K-1 requests wait on the leader's flight,
        # so all K are provably concurrent — none can ride a warm cache.
        deadline = time.monotonic() + 20
        while (server.flight_waiters < K - 1
               and time.monotonic() < deadline):
            time.sleep(0.01)
        assert server.pending == K, "requests never all arrived"
        gated.gate.set()
        for t in threads:
            t.join(timeout=60)

        assert not errors, errors
        assert all(r == results[0] for r in results)
        # One backend round trip...
        assert gated.calls == 1
        # ...one eigensolve...
        assert solver_invocations() - solves_before == 1
        # ...and K-1 requests served off the in-flight leader.
        assert (_counter_value("repro_net_coalesced_total")
                - coalesced_before) == K - 1


def test_config_spellings_share_one_flight():
    """Clients spelling one order differently (``None``, the default
    config, ``connectivity=4``) ride one flight: the server keys it by
    the canonical config, as the service keys its cache."""
    spellings = [None, SpectralConfig(), SpectralConfig(connectivity=4),
                 SpectralConfig(connectivity="orthogonal")]
    gated = GatedFrontend(ShardedIndexFrontend(shards=1))
    grid = Grid((13, 11))  # unique to this test: must be a cold miss
    with SpectralServer(gated, dispatchers=len(spellings),
                        queue_depth=2 * len(spellings)) as server:
        host, port = server.address
        results = [None] * len(spellings)
        errors = []

        def hit(i):
            try:
                with RemoteFrontend(host, port, read_timeout=60) as client:
                    results[i] = client.order_grid(grid, spellings[i])
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=hit, args=(i,))
                   for i in range(len(spellings))]
        for t in threads:
            t.start()
        # Every request is either a leader inside the gated frontend or
        # a waiter on a flight; only then is the gate opened.
        deadline = time.monotonic() + 20
        while (gated.calls + server.flight_waiters < len(spellings)
               and time.monotonic() < deadline):
            time.sleep(0.01)
        gated.gate.set()
        for t in threads:
            t.join(timeout=60)

    assert not errors, errors
    assert all(r == results[0] for r in results)
    assert gated.calls == 1


def test_distinct_fingerprints_do_not_coalesce():
    gated = GatedFrontend(ShardedIndexFrontend(shards=1))
    gated.gate.set()  # no need to hold anything open
    with SpectralServer(gated, dispatchers=2) as server:
        host, port = server.address
        with RemoteFrontend(host, port, read_timeout=60) as client:
            client.order_grid(Grid((14, 3)))
            client.order_grid(Grid((3, 14)))
    assert gated.calls == 2


def test_waiters_retry_when_leader_fails():
    class FailingOnce(GatedFrontend):
        def __init__(self, inner):
            super().__init__(inner)
            self.fail_first = True
            # Holds the second leader until the last follower waits on
            # it, so no follower can miss its flight and solve again.
            self.second_gate = threading.Event()

        def grid_artifact(self, grid, config=None):
            with self._lock:
                self.calls += 1
                should_fail = self.fail_first
                self.fail_first = False
            gate = self.gate if should_fail else self.second_gate
            if not gate.wait(timeout=30):  # pragma: no cover
                raise RuntimeError("test gate never opened")
            if should_fail:
                raise RuntimeError("transient backend failure")
            return self.inner.grid_artifact(grid, config)

    failing = FailingOnce(ShardedIndexFrontend(shards=1))
    grid = Grid((15, 13))
    with SpectralServer(failing, dispatchers=3,
                        request_timeout=60) as server:
        host, port = server.address
        outcomes = [None] * 3

        def hit(i):
            try:
                with RemoteFrontend(host, port, read_timeout=60) as c:
                    outcomes[i] = ("ok", c.order_grid(grid))
            except Exception as exc:
                outcomes[i] = ("err", exc)

        threads = [threading.Thread(target=hit, args=(i,))
                   for i in range(3)]
        for t in threads:
            t.start()
        deadline = time.monotonic() + 20
        while server.flight_waiters < 2 and time.monotonic() < deadline:
            time.sleep(0.01)
        failing.gate.set()
        # The leader fails; one follower leads again and the other
        # waits on the new flight.
        deadline = time.monotonic() + 20
        while ((failing.calls < 2 or server.flight_waiters < 1)
               and time.monotonic() < deadline):
            time.sleep(0.01)
        failing.second_gate.set()
        for t in threads:
            t.join(timeout=60)

    kinds = [kind for kind, _ in outcomes]
    # The leader fails; the waiters elect a new leader and succeed —
    # a transient failure never wedges the flight key.
    assert kinds.count("err") == 1
    assert kinds.count("ok") == 2
    ok_orders = [value for kind, value in outcomes if kind == "ok"]
    assert ok_orders[0] == ok_orders[1]
    assert failing.calls == 2

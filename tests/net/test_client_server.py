"""End-to-end client/server tests over an in-process frontend.

The acceptance property throughout: ``RemoteFrontend`` is a drop-in
for the local frontends — same results bit for bit, same exception
types, same introspection shapes.
"""

import pickle

import pytest

from repro.api.queries import JoinQuery, NNQuery, RangeQuery
from repro.errors import InvalidParameterError
from repro.geometry.grid import Grid
from repro.graph.builders import grid_graph
from repro.net import (
    RemoteFrontend,
    ServerBusy,
    ServerHealth,
    ServerHello,
    SpectralServer,
)
from repro.net.framing import NET_PROTOCOL_VERSION
from repro.obs import (
    collector,
    disable_tracing,
    enable_tracing,
)
from repro.serve.protocol import PROTOCOL_VERSION

pytestmark = pytest.mark.net


class TestOrderingSurface:
    def test_order_grid_bit_identical(self, remote, frontend):
        grid = Grid((9, 9))
        assert remote.order_grid(grid) == frontend.order_grid(grid)

    def test_grid_artifact_bit_identical(self, remote):
        # A *separate* local frontend, so both sides compute cold and
        # the artifacts match including their provenance fields.
        from repro.service import ShardedIndexFrontend

        grid = Grid((8, 8))
        local = ShardedIndexFrontend(shards=2)
        assert remote.grid_artifact(grid) == local.grid_artifact(grid)

    def test_order_graph_bit_identical(self, remote, frontend):
        graph = grid_graph(Grid((5, 5)))
        assert remote.order_graph(graph) == frontend.order_graph(graph)

    def test_graph_artifact_bit_identical(self, remote):
        from repro.service import ShardedIndexFrontend

        graph = grid_graph(Grid((4, 6)))
        local = ShardedIndexFrontend(shards=2)
        assert (remote.graph_artifact(graph)
                == local.graph_artifact(graph))

    def test_order_many_bit_identical(self, remote, frontend):
        requests = [(Grid((6, 6)), None), (Grid((5, 7)), None),
                    (grid_graph(Grid((4, 4))), None)]
        assert remote.order_many(requests) == frontend.order_many(requests)

    def test_order_many_empty(self, remote):
        assert remote.order_many([]) == []

    def test_order_many_validates_parallelism(self, remote):
        with pytest.raises(InvalidParameterError):
            remote.order_many([(Grid((5, 5)), None)], parallelism=0)

    def test_wrong_domain_type_rejected_client_side(self, remote):
        with pytest.raises(InvalidParameterError):
            remote.order_grid(grid_graph(Grid((4, 4))))
        with pytest.raises(InvalidParameterError):
            remote.order_graph(Grid((4, 4)))


class TestQuerySurface:
    def test_query_many_bit_identical(self, remote, frontend):
        grid = Grid((10, 10))
        queries = [RangeQuery(box=((1, 1), (5, 5))),
                   NNQuery(cell=(3, 3), k=5),
                   JoinQuery(cells_a=[0, 1, 2], cells_b=[50, 60],
                             epsilon=4, window=8)]
        got = remote.query_many(grid, queries)
        want = frontend.query_many(grid, queries)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert type(g) is type(w)
        assert list(got[1].neighbors) == list(want[1].neighbors)

    def test_range_matches_local(self, remote, frontend):
        grid = Grid((8, 8))
        got = remote.range(grid, ((0, 0), (3, 3)))
        want = frontend.range(grid, ((0, 0), (3, 3)))
        assert list(got.results) == list(want.results)

    def test_nn_matches_local(self, remote, frontend):
        grid = Grid((8, 8))
        got = remote.nn(grid, (2, 2), 4)
        want = frontend.nn(grid, (2, 2), 4)
        assert list(got.neighbors) == list(want.neighbors)

    def test_server_side_error_reraises_original_type(self, remote):
        # An out-of-domain NN cell fails inside the server's frontend;
        # the client re-raises the same exception type, not a wrapper.
        with pytest.raises(InvalidParameterError):
            remote.query_many(Grid((6, 6)), ["not a query"])


class TestIntrospection:
    def test_hello_shape(self, remote, frontend):
        hello = remote.hello()
        assert isinstance(hello, ServerHello)
        assert hello.net_protocol_version == NET_PROTOCOL_VERSION
        assert hello.serve_protocol_version == PROTOCOL_VERSION
        assert hello.num_shards == frontend.num_shards
        assert remote.num_shards == frontend.num_shards

    def test_stats_and_combined_stats(self, remote, frontend):
        remote.order_grid(Grid((7, 7)))
        stats = remote.stats()
        assert len(stats) == frontend.num_shards
        combined = remote.combined_stats()
        assert combined.computed >= 1
        assert type(combined).__name__ == "ServiceStats"

    def test_health_shape(self, remote):
        health = remote.health()
        assert isinstance(health, ServerHealth)
        assert health.status == "ok"
        assert health.connections_open >= 1
        assert health.queue_capacity >= 1

    def test_metrics_scrape(self, remote):
        remote.order_grid(Grid((6, 6)))
        text = remote.metrics()
        assert "repro_net_requests_total" in text
        assert "repro_net_connections_open" in text

    def test_worker_metrics_empty_without_fleet(self, remote):
        assert remote.worker_metrics() == []

    def test_shard_of_matches_frontend(self, remote, frontend):
        grid = Grid((9, 9))
        assert remote.shard_of(grid) == frontend.shard_of(grid)


class TestTracing:
    def test_remote_trace_stitches_server_spans(self, remote):
        enable_tracing()
        try:
            from repro.obs import span

            with span("test.root") as root:
                assert root.is_recording
                remote.order_grid(Grid((11, 5)))
            records = collector().spans()
        finally:
            disable_tracing()
        names = {r.name for r in records}
        assert "net.client" in names
        assert "net.server" in names
        # The server-side spans joined the client's trace.
        client_spans = [r for r in records if r.name == "net.client"]
        server_spans = [r for r in records if r.name == "net.server"]
        assert {s.trace_id for s in server_spans} <= \
            {s.trace_id for s in client_spans}


class TestServerBusyValue:
    def test_reason_survives_pickle(self):
        busy = ServerBusy("queue is full", reason="deadline")
        clone = pickle.loads(pickle.dumps(busy))
        assert isinstance(clone, ServerBusy)
        assert clone.reason == "deadline"
        assert str(clone) == "queue is full"


class TestServerLifecycle:
    def test_invalid_construction(self, frontend):
        with pytest.raises(InvalidParameterError):
            SpectralServer(frontend, queue_depth=0)
        with pytest.raises(InvalidParameterError):
            SpectralServer(frontend, request_timeout=0)
        with pytest.raises(InvalidParameterError):
            SpectralServer(frontend, dispatchers=0)

    def test_address_requires_start(self, frontend):
        srv = SpectralServer(frontend)
        with pytest.raises(InvalidParameterError):
            srv.address

    def test_close_is_idempotent(self, frontend):
        srv = SpectralServer(frontend).start()
        srv.close()
        srv.close()

    def test_two_clients_share_one_server(self, server, frontend):
        host, port = server.address
        grid = Grid((7, 9))
        with RemoteFrontend(host, port) as a, \
                RemoteFrontend(host, port) as b:
            assert a.order_grid(grid) == b.order_grid(grid)
            assert server._hello().num_shards == frontend.num_shards

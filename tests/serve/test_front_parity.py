"""The three fronts agree on malformed and shorthand domains.

``ShardedIndexFrontend`` (in process), ``ProcessPoolFrontend`` (worker
processes) and ``RemoteFrontend`` (a socket) serve one surface, so they
must also fail alike: an ``order_grid``-family call given a graph, or
an ``order_graph``-family call given a grid, raises
``InvalidParameterError`` on every front, and a plain shape tuple
orders exactly like the grid it names.  Behind the transports, a raw
order request whose domain is neither a grid nor a graph comes back
from a worker or the server as the same error, never an
``AttributeError``.  Every front refuses an algorithm object in place
of a config with the same error, without counting it.  And every front
serves the library's multilevel order of a random-weight graph, bit for
bit.

The pool spawns real workers, hence the ``multiproc`` mark; the remote
cases also open sockets (``net``).
"""

from __future__ import annotations

import pytest

from repro.api import ProcessPoolFrontend
from repro.core import SpectralConfig, SpectralLPM
from repro.errors import InvalidParameterError
from repro.geometry import Grid, PointSet
from repro.graph.builders import grid_graph
from repro.net import RemoteFrontend, SpectralServer
from repro.serve.protocol import ErrorResponse, OrderRequestMessage
from repro.serve.worker import ShardWorker
from repro.service import ShardedIndexFrontend

pytestmark = pytest.mark.multiproc

GRID = Grid((6, 6))
GRAPH = grid_graph(Grid((4, 4)))
POINTS = PointSet(Grid((5, 5)), [0, 6, 12, 18, 24])


@pytest.fixture(scope="module")
def pool():
    with ProcessPoolFrontend(shards=2) as front:
        yield front


@pytest.fixture(scope="module")
def remote():
    with SpectralServer(ShardedIndexFrontend(shards=2),
                        dispatchers=2) as server:
        host, port = server.address
        with RemoteFrontend(host, port, read_timeout=60) as client:
            yield client


@pytest.fixture(params=["sharded", "pool",
                        pytest.param("remote", marks=pytest.mark.net)])
def front(request):
    if request.param == "sharded":
        return ShardedIndexFrontend(shards=2)
    return request.getfixturevalue(request.param)


@pytest.mark.parametrize("method, domain", [
    pytest.param("order_grid", GRAPH, id="order_grid-graph"),
    pytest.param("grid_artifact", GRAPH, id="grid_artifact-graph"),
    pytest.param("order_graph", GRID, id="order_graph-grid"),
    pytest.param("graph_artifact", GRID, id="graph_artifact-grid"),
])
def test_wrong_kind_domain_is_invalid_on_every_front(front, method,
                                                     domain):
    with pytest.raises(InvalidParameterError):
        getattr(front, method)(domain)


def test_shape_tuple_orders_like_its_grid(front):
    assert front.order_grid((6, 6)) == front.order_grid(GRID)


def test_multilevel_permutation_is_the_library_one(
        front, random_weight_grid_graph):
    graph = random_weight_grid_graph(20, seed=20)
    assert front.order_graph(graph, SpectralConfig(backend="multilevel")) \
        == SpectralLPM(backend="multilevel").order_graph(graph)


@pytest.mark.parametrize("algorithm", [
    pytest.param(SpectralLPM(), id="cacheable"),
    pytest.param(SpectralLPM(weight=len), id="callable-weight"),
])
def test_algorithm_config_is_invalid_on_every_front(front, algorithm):
    # A request is a domain plus a SpectralConfig or None: an algorithm
    # object is refused before any cache tier counts it, and its
    # callable weight never runs on the serving side.
    before = front.combined_stats()
    with pytest.raises(InvalidParameterError):
        front.order_grid(GRID, algorithm)
    assert front.combined_stats() == before


def test_worker_rejects_pointset_order_request():
    worker = ShardWorker(0, (0,), 1, {})
    response, keep = worker.handle(OrderRequestMessage(POINTS))
    assert keep and isinstance(response, ErrorResponse)
    with pytest.raises(InvalidParameterError):
        response.raise_()


@pytest.mark.net
def test_server_rejects_pointset_order_request(remote):
    # Sent through the transport directly: the surface methods would
    # refuse the point set before it left the client.
    with pytest.raises(InvalidParameterError):
        remote._call(OrderRequestMessage(POINTS))
